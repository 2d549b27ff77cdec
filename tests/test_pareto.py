"""Unit tests for the Pareto-front dominance store."""

import random

from repro.core import ParetoFront


def naive_insert(front, vector, eps=1e-12):
    """Reference implementation: the seed's flat-list dominance update."""
    if any(all(e <= v + eps for e, v in zip(vec, vector)) for vec in front):
        return front, False
    kept = [vec for vec in front if not all(v <= e + eps for v, e in zip(vector, vec))]
    kept.append(vector)
    return kept, True


class TestParetoFront:
    def test_first_insert_accepted(self):
        front = ParetoFront()
        assert front.insert((1.0, 2.0))
        assert front.vectors() == [(1.0, 2.0)]

    def test_dominated_insert_rejected(self):
        front = ParetoFront()
        assert front.insert((1.0, 1.0))
        assert not front.insert((2.0, 2.0))
        assert front.vectors() == [(1.0, 1.0)]

    def test_dominating_insert_prunes(self):
        front = ParetoFront()
        assert front.insert((2.0, 2.0))
        assert front.insert((1.0, 1.0))
        assert front.vectors() == [(1.0, 1.0)]

    def test_incomparable_coexist(self):
        front = ParetoFront()
        assert front.insert((1.0, 3.0))
        assert front.insert((3.0, 1.0))
        assert front.insert((2.0, 2.0))
        assert len(front) == 3

    def test_matches_flat_list_reference(self):
        """Randomized equivalence with the seed's flat-list implementation."""
        rng = random.Random(0)
        for _ in range(20):
            front = ParetoFront()
            reference = []
            for _ in range(200):
                vector = tuple(rng.choice([0.5, 1.0, 1.5, 2.0]) for _ in range(3))
                reference, accepted_ref = naive_insert(reference, vector)
                accepted = front.insert(vector)
                assert accepted == accepted_ref
                assert sorted(front.vectors()) == sorted(reference)

