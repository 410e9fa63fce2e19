"""Property tests: coordinate inverses, JSON/CSV round trips and orbits on
random small inputs. Derandomized, so every run draws the same examples."""

import csv
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cpops.characters import (  # noqa: E402
    character_direct,
    character_from_json,
    character_to_csv,
    character_to_json,
)
from cpops.oracle import dominant_rep, signed_orbit  # noqa: E402
from cpops.patterns import (  # noqa: E402
    enumerate_patterns,
    enumerate_restricted_patterns,
    pattern_from_json,
    pattern_to_json,
)
from cpops.pops import (  # noqa: E402
    enumerate_pops,
    enumerate_restricted_pops,
    pop_from_json,
    pop_to_json,
)
from cpops.rootsys import (  # noqa: E402
    DominantWeight,
    lambda_to_omegas,
    lambda_tuple,
    omegas_to_lambda,
)

small = settings(derandomize=True, max_examples=30, deadline=None, database=None)

omegas = st.lists(st.integers(0, 6), min_size=1, max_size=6)
# Rank <= 3 and total <= 2: every enumeration stays in the hundreds.
small_weights = st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(
    lambda m: sum(m) <= 2).map(lambda m: DominantWeight.from_omegas(tuple(m)))


@small
@given(omegas)
def test_omegas_lambda_inverse(m):
    lam = omegas_to_lambda(m)
    assert lambda_tuple(lam) == lam
    assert lambda_to_omegas(lam) == tuple(m)
    assert omegas_to_lambda(lambda_to_omegas(lam)) == lam


def _is_lambda_tuple(seq) -> bool:
    return bool(seq) and seq[-1] >= 0 and all(a >= b for a, b in zip(seq, seq[1:]))


@small
@given(st.lists(st.integers(-3, 3), max_size=5).filter(
    lambda seq: not _is_lambda_tuple(seq)))
def test_invalid_lambda_rejected(seq):
    with pytest.raises(ValueError):
        lambda_tuple(seq)
    with pytest.raises(ValueError):
        lambda_to_omegas(seq)


@small
@given(small_weights, st.booleans(), st.data())
def test_pattern_json_round_trip(w, restricted, data):
    items = list(enumerate_restricted_patterns(w.lam) if restricted
                 else enumerate_patterns(w))
    p = data.draw(st.sampled_from(items))
    assert pattern_from_json(json.loads(json.dumps(pattern_to_json(p)))) == p


@small
@given(small_weights, st.booleans(), st.data())
def test_pop_json_round_trip(w, restricted, data):
    items = list(enumerate_restricted_pops(w.lam) if restricted
                 else enumerate_pops(w))
    pop = data.draw(st.sampled_from(items))
    assert pop_from_json(json.loads(json.dumps(pop_to_json(pop)))) == pop


@small
@given(small_weights)
def test_character_json_and_csv_round_trip(w):
    ch = character_direct(w)
    assert character_from_json(json.loads(json.dumps(character_to_json(ch)))) == ch
    rows = list(csv.reader(io.StringIO(character_to_csv(ch))))
    assert rows[0] == ["grade"] + [f"a{i}" for i in range(1, w.rank + 1)] + ["mult"]
    read_back = {}
    for row in rows[1:]:
        values = [int(x) for x in row]
        read_back[(values[0], tuple(values[1:-1]))] = values[-1]
    assert read_back == ch.terms


@small
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_orbit_shares_dominant_rep(weight):
    rep = dominant_rep(weight)
    assert all(dominant_rep(image) == rep for image in signed_orbit(weight))
    assert tuple(weight) in signed_orbit(rep)
