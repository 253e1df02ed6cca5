"""The generators' draws, pinned.

Each generator is run at a fixed seed on small carriers, and its output is
compared with the pairs, members and tables it has always produced.  The
generator's next ``rng.random()`` after the call is pinned too, so a
rewrite that adds or drops a draw shows even where the output agrees.
Two larger outputs are pinned by a digest of their rows.
"""

import hashlib
import random

from delmc import AgentSet, FiniteSet
from delmc import generators as gen

X = FiniteSet("X", ("x1", "x2", "x3"))
Y = FiniteSet("Y", ("y1", "y2", "y3", "y4"))
AB = AgentSet(("a", "b"))


def pairs(r):
    return sorted(r.pairs)


def frame_pairs(f):
    return {a: pairs(f.rel(a)) for a in f.agents}


def rows_digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_random_relation_at_a_given_density():
    rng = random.Random(1)
    r = gen.random_relation(rng, X, Y, 0.5)
    assert pairs(r) == [
        ("x1", "y1"), ("x1", "y4"), ("x2", "y1"), ("x2", "y2"),
        ("x3", "y1"), ("x3", "y2"), ("x3", "y4"),
    ]
    assert rng.random() == 0.762280082457942


def test_random_relation_draws_its_density_first():
    rng = random.Random(2)
    r = gen.random_relation(rng, X, Y)
    assert pairs(r) == [("x1", "y2"), ("x1", "y3"), ("x2", "y3"), ("x3", "y3"), ("x3", "y4")]
    assert rng.random() == 0.39353182020537136


def test_random_subset():
    rng = random.Random(3)
    assert gen.random_subset(rng, Y).members_in_order() == ["y1", "y3"]
    assert rng.random() == 0.625720304108054


def test_random_function():
    rng = random.Random(4)
    f = gen.random_function(rng, Y, X)
    assert pairs(f) == [("y1", "x1"), ("y2", "x2"), ("y3", "x1"), ("y4", "x3")]
    assert rng.random() == 0.396058242610681


def test_random_surjection():
    rng = random.Random(5)
    f = gen.random_surjection(rng, Y, X)
    assert pairs(f) == [("y1", "x1"), ("y2", "x2"), ("y3", "x3"), ("y4", "x3")]
    assert rng.random() == 0.9424502837770503


def test_random_frame():
    rng = random.Random(6)
    assert frame_pairs(gen.random_frame(rng, X, AB)) == {
        "a": [("x1", "x2"), ("x1", "x3"), ("x2", "x1"), ("x2", "x3"), ("x3", "x2")],
        "b": [("x2", "x3"), ("x3", "x3")],
    }
    assert rng.random() == 0.8033653096113132


def test_random_model():
    rng = random.Random(7)
    m = gen.random_model(rng, 3, AB)
    assert frame_pairs(m.frame) == {
        "a": [("w1", "w1"), ("w1", "w3"), ("w2", "w3"), ("w3", "w2")],
        "b": [("w1", "w1"), ("w2", "w1")],
    }
    assert {a: s.members_in_order() for a, s in m.valuation} == {
        "p": ["w2"], "q": ["w1", "w2", "w3"],
    }
    assert rng.random() == 0.30848182410193437


def test_random_monotone_map():
    rng = random.Random(8)
    dst = gen.random_frame(rng, X, AB, 0.6)
    fm = gen.random_monotone_map(rng, 4, dst)
    assert frame_pairs(fm.src) == {
        "a": [
            ("z1", "z1"), ("z1", "z2"), ("z1", "z4"), ("z2", "z1"), ("z2", "z2"),
            ("z2", "z3"), ("z2", "z4"), ("z3", "z1"), ("z3", "z2"), ("z3", "z3"),
            ("z4", "z1"), ("z4", "z2"), ("z4", "z3"),
        ],
        "b": [("z2", "z4"), ("z3", "z4"), ("z4", "z2")],
    }
    assert pairs(fm.fn) == [("z1", "x2"), ("z2", "x2"), ("z3", "x2"), ("z4", "x3")]
    assert rng.random() == 0.2856532302299146


def test_random_bounded_map():
    rng = random.Random(9)
    dst = gen.random_frame(rng, X, AB, 0.6)
    fm = gen.random_bounded_map(rng, 4, dst)
    assert frame_pairs(fm.src) == {
        "a": [
            ("z1", "z1"), ("z1", "z2"), ("z1", "z3"), ("z2", "z1"), ("z2", "z2"),
            ("z2", "z3"), ("z3", "z1"), ("z3", "z2"), ("z3", "z3"), ("z4", "z1"),
            ("z4", "z2"), ("z4", "z3"), ("z4", "z4"),
        ],
        "b": [
            ("z1", "z1"), ("z1", "z2"), ("z1", "z3"), ("z1", "z4"), ("z2", "z2"),
            ("z3", "z1"), ("z3", "z2"), ("z3", "z3"), ("z3", "z4"), ("z4", "z1"),
            ("z4", "z2"), ("z4", "z3"),
        ],
    }
    assert pairs(fm.fn) == [("z1", "x3"), ("z2", "x2"), ("z3", "x3"), ("z4", "x1")]
    assert rng.random() == 0.8872639618938374


def _sheaf(seed):
    rng = random.Random(seed)
    base = gen.random_frame(rng, FiniteSet("B", ("w1", "w2")), AB, 0.6)
    return rng, gen.random_sheaf(rng, base)


def test_random_sheaf():
    rng, sheaf = _sheaf(10)
    assert sheaf.total.carrier.elements == ("d1_1", "d1_2", "d1_3", "d2_1", "d2_2")
    assert frame_pairs(sheaf.total) == {
        "a": [
            ("d1_1", "d1_2"), ("d1_1", "d2_1"), ("d1_2", "d1_1"), ("d1_2", "d2_2"),
            ("d1_3", "d1_1"), ("d1_3", "d2_2"), ("d2_1", "d1_1"), ("d2_1", "d2_2"),
            ("d2_2", "d1_2"), ("d2_2", "d2_2"),
        ],
        "b": [("d2_1", "d2_2"), ("d2_2", "d2_2")],
    }
    assert pairs(sheaf.proj.fn) == [
        ("d1_1", "w1"), ("d1_2", "w1"), ("d1_3", "w1"), ("d2_1", "w2"), ("d2_2", "w2"),
    ]
    assert rng.random() == 0.45683115105830563


# g sends each pair to its first coordinate, at every seed
G = {
    ("(d1_1,d1_1)", "d1_1"), ("(d1_1,d1_2)", "d1_1"), ("(d1_1,d1_3)", "d1_1"),
    ("(d1_2,d1_1)", "d1_2"), ("(d1_2,d1_2)", "d1_2"), ("(d1_2,d1_3)", "d1_2"),
    ("(d1_3,d1_1)", "d1_3"), ("(d1_3,d1_2)", "d1_3"), ("(d1_3,d1_3)", "d1_3"),
}


def test_random_sheaf_model_falls_back_to_the_identity():
    _, sheaf = _sheaf(10)
    rng = random.Random(11)
    model = gen.random_sheaf_model(rng, sheaf)
    tables = {n: pairs(f.fn) for n, f in model.fn_interp_map.items()}
    assert tables == {
        "f": [(d, d) for d in ("d1_1", "d1_2", "d1_3", "d2_1", "d2_2")],
        "g": sorted(G | {
            ("(d2_1,d2_1)", "d2_1"), ("(d2_1,d2_2)", "d2_1"),
            ("(d2_2,d2_1)", "d2_2"), ("(d2_2,d2_2)", "d2_2"),
        }),
    }
    assert {n: s.members_in_order() for n, s in model.rel_interp_map.items()} == {
        "P1": ["d1_1", "d1_2", "d1_3", "d2_1", "d2_2"],
        "P2": ["d1_1", "d1_2", "d2_1", "d2_2"],
        "Q": ["w1"],
        "R2": ["(d1_2,d1_3)", "(d1_3,d1_1)", "(d1_3,d1_2)", "(d2_2,d2_1)"],
    }
    assert rng.random() == 0.4822357227449906


def test_random_sheaf_model_with_a_constant():
    rng, sheaf = _sheaf(20)
    assert sheaf.total.carrier.elements == ("d1_1", "d1_2", "d1_3", "d2_1")
    model = gen.random_sheaf_model(rng, sheaf)
    tables = {n: pairs(f.fn) for n, f in model.fn_interp_map.items()}
    assert tables == {
        "c": [("w1", "d1_2"), ("w2", "d2_1")],
        "f": [("d1_1", "d1_1"), ("d1_2", "d1_1"), ("d1_3", "d1_1"), ("d2_1", "d2_1")],
        "g": sorted(G | {("(d2_1,d2_1)", "d2_1")}),
    }
    assert {n: s.members_in_order() for n, s in model.rel_interp_map.items()} == {
        "P1": ["d1_3", "d2_1"],
        "P2": ["d1_3", "d2_1"],
        "Q": ["w1", "w2"],
        "R2": [
            "(d1_1,d1_1)", "(d1_1,d1_2)", "(d1_1,d1_3)", "(d1_2,d1_1)",
            "(d1_2,d1_3)", "(d1_3,d1_1)", "(d2_1,d2_1)",
        ],
    }
    assert rng.random() == 0.23395965143377062


def test_a_sixty_world_model_by_digest():
    rng = random.Random(12)
    m = gen.random_model(rng, 60, AB)
    digest = rows_digest(
        m.frame.carrier.elements,
        [m.frame.rel(a).rows for a in AB],
        [(a, s.mask) for a, s in m.valuation],
    )
    assert digest == "a70edd7f6a446bed76bd09a08581bd6b4fc264b1f8bfb30265ec08d87c1c28e1"
    assert rng.random() == 0.9055151681112334


def test_a_sheaf_over_ten_worlds_by_digest():
    rng = random.Random(13)
    base = gen.random_frame(rng, gen.random_carrier(rng, 10), AB, 0.3)
    sheaf = gen.random_sheaf(rng, base)
    digest = rows_digest(
        sheaf.total.carrier.elements,
        [sheaf.total.rel(a).rows for a in AB],
        sheaf.proj.fn.rows,
    )
    assert digest == "4aca712a1e041a486f00413af43b636acc8db26b4c7af616cc0c54b956cf8704"
    assert rng.random() == 0.9853209397457594
