import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsteiner import perm
from kmsteiner.perm import (
    Permutation,
    PermutationGroup,
    StabilizerChain,
    cyclic_group,
    normalizer_of_cyclic,
    parse_permutation,
    read_group_file,
    verify_normalizes,
    write_group_file,
)

from oracles import closure_elements, lex_min_rep, orbit_of_subset, subset_image


def test_parse_cycles():
    p = parse_permutation("(1,2,3)(4,5,6,7)", 7)
    assert p.images == (2, 3, 1, 5, 6, 7, 4)


def test_parse_image_list_identity():
    assert parse_permutation("1 2 3 4 5 6 7", 7).is_identity()


def test_parse_transposition():
    assert parse_permutation("(2,3)", 3).images == (1, 3, 2)


@pytest.mark.parametrize(
    "text,v",
    [
        ("(1,2)(2,3)", 3),  # duplicate point
        ("(1,5)", 3),  # out of range
        ("1 1 3", 3),  # non-bijection
        ("1 2", 3),  # wrong length
        ("(1,2", 3),  # malformed
    ],
)
def test_parse_errors(text, v):
    with pytest.raises(ValueError):
        parse_permutation(text, v)


def test_cycle_string_round_trip():
    p = parse_permutation("(1,4,2)(5,6)", 8)
    assert parse_permutation(p.cycle_string(), 8) == p
    assert Permutation.identity(4).cycle_string() == "()"


def test_from_images_takes_integers_of_any_integer_dtype():
    p = Permutation.from_images([2, 3, 1])
    for dtype in (np.int64, np.uint8, np.int16):
        assert Permutation.from_images(np.array([2, 3, 1], dtype=dtype)) == p
    assert Permutation.from_images(list(np.array([2, 3, 1]))).images == (2, 3, 1)
    for images in ([2, True], [2.0, 1.0], np.array([2.0, 1.0]), ["2", "1"],
                   np.array([False, True])):
        with pytest.raises(ValueError, match="is not an integer"):
            Permutation.from_images(images)
    with pytest.raises(ValueError, match=r"point 4 out of range 1\.\.3"):
        Permutation.from_images(np.array([4, 1, 2]))


@given(st.permutations(list(range(1, 8))))
def test_compose_inverse_is_identity(images):
    p = Permutation.from_images(images)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
def test_composition_order(im1, im2):
    p, q = Permutation.from_images(im1), Permutation.from_images(im2)
    for x in range(1, 7):
        assert (p * q).images[x - 1] == q.images[p.images[x - 1] - 1]


def test_group_order_examples():
    assert cyclic_group(91).order() == 91
    assert normalizer_of_cyclic(91).order() == 6552
    assert PermutationGroup.trivial(5).order() == 1
    assert normalizer_of_cyclic(7).order() == 42
    assert normalizer_of_cyclic(2).order() == 2


def test_order_matches_closure_bfs():
    fixtures = [
        PermutationGroup([parse_permutation("(1,2)", 5), parse_permutation("(1,2,3,4,5)", 5)]),
        PermutationGroup([parse_permutation("(1,2,3)", 4), parse_permutation("(2,3,4)", 4)]),
        normalizer_of_cyclic(13),
        cyclic_group(12),
        PermutationGroup([parse_permutation("(1,2,3,4,5,6)", 6), parse_permutation("(2,6)(3,5)", 6)]),
    ]
    for G in fixtures:
        assert G.order() == len(closure_elements(G.generators))
        els = G.element_table().tolist()
        assert len(els) == len(set(map(tuple, els))) == G.order()


def test_membership():
    S5 = PermutationGroup(
        [parse_permutation("(1,2)", 5), parse_permutation("(1,2,3,4,5)", 5)]
    )
    assert parse_permutation("(1,3)(2,5)", 5) in S5
    A4 = PermutationGroup(
        [parse_permutation("(1,2,3)", 4), parse_permutation("(2,3,4)", 4)]
    )
    assert parse_permutation("(1,2)", 4) not in A4
    assert Permutation.identity(4) in A4


def test_stabilizer_chain_add_reports_growth():
    chain = StabilizerChain([], 5)
    assert not chain.add(tuple(range(5)))
    assert chain.add((1, 2, 3, 4, 0)) and chain.order() == 5
    assert not chain.add((2, 3, 4, 0, 1))  # the square of the 5-cycle
    assert chain.add((1, 0, 2, 3, 4)) and chain.order() == 120
    assert not chain.add((0, 2, 1, 4, 3)) and chain.order() == 120


@st.composite
def generator_lists(draw):
    """A degree 2 <= v <= 8 and 1..4 permutations, each moving a drawn subset
    of the points: often intransitive, often with chains of several levels."""
    v = draw(st.integers(2, 8))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.integers(0, v - 1), min_size=max(2, v // 2), unique=True))
        images = list(range(v))
        for x, y in zip(support, draw(st.permutations(support))):
            images[x] = y
        gens.append(Permutation(images))
    return v, gens


@settings(max_examples=60, deadline=None)
@given(generator_lists(), st.data())
def test_chain_matches_closure(drawn, data):
    v, gens = drawn
    chain = StabilizerChain([], v)
    els = {Permutation.identity(v)}
    for i, g in enumerate(gens):
        grown = closure_elements(gens[: i + 1])
        assert chain.add(g.raw()) == (len(grown) > len(els))
        els = grown
        assert chain.order() == len(els)
    again = StabilizerChain([g.raw() for g in gens], v)
    assert (again.base, again.gens, again.trans) == (chain.base, chain.gens, chain.trans)
    members = data.draw(st.lists(st.sampled_from(sorted(els, key=Permutation.raw)), max_size=5))
    others = data.draw(st.lists(st.permutations(range(v)), max_size=5))
    for p in members + [Permutation(q) for q in others]:
        assert chain.contains(p.raw()) == (p in els)
    table = PermutationGroup(gens, v).element_table()
    assert table.flags.c_contiguous
    rows = {Permutation(row) for row in table.tolist()}
    assert len(rows) == len(table) and rows == els


def test_orbit_of_subset_examples():
    C7 = cyclic_group(7)
    assert len(orbit_of_subset(C7, (1, 2, 4))) == 7
    assert orbit_of_subset(PermutationGroup.trivial(6), (2, 5)) == {(2, 5)}
    G = PermutationGroup([parse_permutation("(1,2)", 4)])
    assert orbit_of_subset(G, (1, 2)) == {(1, 2)}


def test_lex_min_rep_examples():
    C7 = cyclic_group(7)
    assert lex_min_rep(C7, (2, 3, 5)) == (1, 2, 4)
    assert lex_min_rep(PermutationGroup.trivial(7), (3, 5)) == (3, 5)
    assert lex_min_rep(C7, lex_min_rep(C7, (4, 6, 7))) == lex_min_rep(C7, (4, 6, 7))


def test_lex_min_rep_constant_on_orbit():
    rng = random.Random(42)
    G = normalizer_of_cyclic(13)
    els = G.element_table().tolist()
    S = (2, 5, 6)
    rep = lex_min_rep(G, S)
    for _ in range(100):
        g = rng.choice(els)
        assert lex_min_rep(G, subset_image(g, S)) == rep


def test_orbit_stabilizer_identity():
    for G in (cyclic_group(10), normalizer_of_cyclic(11), cyclic_group(7)):
        els = G.element_table().tolist()
        for S in [(1, 2), (1, 3, 4), (2,)]:
            orbit = orbit_of_subset(G, S)
            S0 = tuple(sorted(S))
            stab = sum(1 for g in els if subset_image(g, S0) == S0)
            assert len(orbit) * stab == G.order()


def test_element_table(monkeypatch):
    G = normalizer_of_cyclic(13)
    table = G.element_table()
    assert table.dtype == np.int64 and table.shape == (156, 13)
    assert not table.flags.writeable
    assert G.element_table() is table
    assert {Permutation(row) for row in table.tolist()} == closure_elements(G.generators)
    monkeypatch.setattr(perm, "ELEMENT_TABLE_CAP", 100)
    with pytest.raises(ValueError, match="group order 156 exceeds enumeration cap 100"):
        G.element_table()


def test_orbit_sizes_divide_group_order():
    N = normalizer_of_cyclic(13)
    for S in [(1, 2, 3), (1, 5), (2, 4, 9)]:
        assert N.order() % len(orbit_of_subset(N, S)) == 0


@pytest.mark.parametrize("v", [13, 19, 91])
def test_normalizer_of_cyclic_generators_match_fixture(fixtures_dir, v):
    # the generators themselves, not only the group they generate: the
    # benchmark's seed relabeling conjugates them one by one
    fixture = read_group_file(os.path.join(fixtures_dir, "normalizers", f"C{v}.grp"))
    assert normalizer_of_cyclic(v).generators == fixture.generators


def test_verify_normalizes():
    G = cyclic_group(91)
    N = normalizer_of_cyclic(91)
    assert verify_normalizes(N, G)
    assert verify_normalizes(G, G)
    # A3 is normal in S3, so even a transposition normalizes it
    N2 = PermutationGroup([parse_permutation("(1,2)", 3)])
    G2 = PermutationGroup([parse_permutation("(1,2,3)", 3)])
    assert verify_normalizes(N2, G2)
    # but a transposition does not normalize a 4-cycle
    N3 = PermutationGroup([parse_permutation("(1,2)", 4)])
    G3 = PermutationGroup([parse_permutation("(1,2,3,4)", 4)])
    assert not verify_normalizes(N3, G3)
    with pytest.raises(ValueError):
        verify_normalizes(N2, G3)


def test_group_file_round_trip(tmp_path):
    G = normalizer_of_cyclic(13)
    path = os.path.join(tmp_path, "g.grp")
    write_group_file(path, G, comment="normalizer fixture")
    G2 = read_group_file(path)
    assert G2.degree == 13
    assert [g.images for g in G2.generators] == [g.images for g in G.generators]
    # and the file re-serializes identically
    path2 = os.path.join(tmp_path, "g2.grp")
    write_group_file(path2, G2, comment="normalizer fixture")
    assert open(path).read() == open(path2).read()


def test_group_file_errors(tmp_path):
    bad = os.path.join(tmp_path, "bad.grp")
    with open(bad, "w") as fh:
        fh.write("order 5\n(1,2)\n")
    with pytest.raises(ValueError) as info:
        read_group_file(bad)
    assert str(info.value) == f"{bad}:1: first line must be 'degree v'"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# a comment\n\ndegree x\n(1,2)\n", 3, "bad degree x"),
        ("degree 0\n", 1, "bad degree 0"),
        ("degree 5\n# a comment\n(1,2)\n\n(1,2\n", 5, "unparseable permutation text '(1,2'"),
        ("degree 5\n(1,2)  # a comment\n(1,9)\n", 3, "point 9 out of range 1..5"),
    ],
)
def test_group_file_error_names_its_line(tmp_path, text, line, message):
    bad = os.path.join(tmp_path, "bad.grp")
    with open(bad, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError) as info:
        read_group_file(bad)
    assert str(info.value) == f"{bad}:{line}: {message}"


def test_fingerprint_deterministic():
    assert cyclic_group(13).fingerprint() == cyclic_group(13).fingerprint()
    assert cyclic_group(13).fingerprint() != cyclic_group(14).fingerprint()
