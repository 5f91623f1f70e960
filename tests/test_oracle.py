import copy
import itertools
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings

import carterlink as cl
from carterlink import diagram as dg
from carterlink import roots as rt
from carterlink.cartan import CartanError
from carterlink.diagram import DiagramError
from carterlink.linkage import form_num, group_by_p
from helpers import CATALOG, _dot, _ref_reflect, ambient, cycles_left_by, embedding_in, labels_in, \
    links_of, pc_of, ref_extension_orbit, ref_inverse, ref_mat_vec, ref_rank, ref_realized, \
    ref_root, ref_root_system, ref_root_text, shuffled, signed_bipartite_diagrams, system_of


# -- root systems -----------------------------------------------------------------

# every name build_root_system accepts
ROOT_SYSTEM_NAMES = [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(2, 13)] + \
    ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", ROOT_SYSTEM_NAMES)
def test_root_counts(name):
    n = int(name[1:])
    expected = {"A": n * (n + 1), "D": 2 * n * (n - 1), "E": {6: 72, 7: 126, 8: 240}.get(n)}
    assert len(ambient(name)) == expected[name[0]]


def test_roots_closed_under_negation():
    for name in ("E7", "A5", "D6"):
        rs = ambient(name)
        assert all(tuple(-x for x in r) in rs.index for r in rs.doubled)


def test_a_n_roots_are_coordinate_differences():
    rs = ambient("A3")
    assert all(sorted(x) == [-2, 0, 0, 2] for x in rs.doubled)  # doubled


def test_four_cycle_does_not_embed_in_a_n():
    # only A-type classes live in the symmetric groups
    assert cl.find_embedding(cl.catalog("D4(a1)"), ambient("A7")) is None


def test_a3_in_a5_labels_are_subset():
    d = cl.catalog("A3")
    emb = cl.find_embedding(d, ambient("A5"))
    assert emb is not None
    labels = cl.direct_linkage_labels(emb).labels
    enum = set(cl.enumerate_linkages(cl.build_partial_cartan(d)))
    assert set(labels) <= enum and labels


def test_unsupported_root_system():
    with pytest.raises(rt.RootSystemError):
        cl.build_root_system("A13")
    with pytest.raises(rt.RootSystemError):
        cl.build_root_system("D4(a1)")


@pytest.mark.parametrize("name", ["", "X9", "E9", 5, 8])
def test_build_root_system_rejects_a_name_it_does_not_know(name):
    # a name that is no diagram name either raises RootSystemError, not DiagramError;
    # one that is not a str once leaked AttributeError
    with pytest.raises(rt.RootSystemError, match=f"^unsupported root system {re.escape(repr(name))}$"):
        cl.build_root_system(name)


_HALF_ONES = (1,) * 8  # (1/2, ..., 1/2) doubled


def _pm(*xs):
    """The doubled vectors xs and their negatives."""
    return [c for x in xs for c in (x, tuple(-a for a in x))]


@pytest.mark.parametrize("doubled,message", [
    ([(2, 2), (2, 2), (-2, -2)], "duplicate roots"),
    (_pm((2, 2), (2, 0)), r"doubled root \(-2, 0\) has squared norm != 8"),
    ([(2, 2), (2, -2), (-2, -2)],
     r"set not closed under negation: doubled root \(2, -2\) has no negative"),
    # both have norm 2; their inner product is 6 / 4
    (_pm(_HALF_ONES, _HALF_ONES[:7] + (-1,)), "non-integral inner products"),
    # a root shorter than the rest: unchecked, ip_bits would misread its missing coordinate
    ([(2, 2, 0), (-2, -2, 0), (2, 2)], r"doubled root \(2, 2\) has length != 3"),
])
def test_root_system_checks(doubled, message):
    with pytest.raises(rt.RootSystemError, match=f"^x: {message}$"):
        rt.RootSystem("x", len(doubled[0]), len(doubled[0]), doubled)


def test_a_root_system_with_no_roots_is_rejected():
    # find_embedding and embedding_independence once leaked IndexError from
    # the level-0 rule, which reads root 0
    with pytest.raises(rt.RootSystemError, match="^x: no roots$"):
        rt.find_embedding(cl.catalog("A2"), rt.RootSystem("x", 2, 2, []))
    with pytest.raises(rt.RootSystemError, match="^x: no roots$"):
        rt.embedding_independence(cl.catalog("A2"), rt.RootSystem("x", 2, 2, []), 2)


# once leaked TypeError from the regex that reads the lattice rule from the name
@pytest.mark.parametrize("name", [8, None])
def test_root_system_rejects_a_name_that_is_not_a_str(name):
    with pytest.raises(rt.RootSystemError, match=f"^root system name {name!r} is not a str$"):
        rt.RootSystem(name, 4, 4, cl.build_root_system("D4").doubled)


# rank "8" once leaked TypeError from find_embeddings and dim 8.0 from
# _ip_bits; the other five were accepted, and rank True, 0 and -1 then
# embedded nothing
@pytest.mark.parametrize("rank,dim,message", [
    ("8", 8, "rank '8' is not an int >= 1"),
    (8, 8.0, "dim 8.0 is not an int >= 1"),
    (8.0, 8, "rank 8.0 is not an int >= 1"),
    (True, 8, "rank True is not an int >= 1"),
    (0, 8, "rank 0 is not an int >= 1"),
    (-1, 8, "rank -1 is not an int >= 1"),
    (9, 8, "rank 9 exceeds dim 8"),
])
def test_root_system_rejects_a_rank_or_dim_that_is_not_an_int_of_at_least_1(rank, dim, message):
    with pytest.raises(rt.RootSystemError, match=f"^E8: {re.escape(message)}$"):
        rt.RootSystem("E8", rank, dim, ambient("E8").doubled)


@pytest.mark.parametrize("name", ROOT_SYSTEM_NAMES)
def test_root_systems_match_fraction_reference(name):
    got, want = ambient(name), ref_root_system(name)
    for f in ("doubled", "index", "ip_bits"):
        assert getattr(got, f) == getattr(want, f), f
    # the order law: doubled[n - 1 - i] is the negative of doubled[i]
    assert got.doubled[::-1] == tuple(tuple(-c for c in x) for x in got.doubled)


def test_in_root_lattice():
    # doubled integer vectors: y stands for y / 2
    e8 = ambient("E8")
    assert e8.in_root_lattice((1,) * 8)
    assert not e8.in_root_lattice((-1,) * 5 + (1,) * 3)  # odd number of minus halves
    assert not e8.in_root_lattice((1, 1) + (0,) * 6)  # halves and integers mixed
    assert e8.in_root_lattice((4,) + (0,) * 7)  # 2 e1, of norm 4
    d5 = ambient("D5")
    assert d5.in_root_lattice((2, 2, 0, 0, 0))
    assert not d5.in_root_lattice((2, 0, 0, 0, 0))
    assert not d5.in_root_lattice((1, 1, 0, 0, 0))  # halves
    a4 = ambient("A4")
    assert a4.in_root_lattice((2, 2, -4, 0, 0))
    assert not a4.in_root_lattice((2, 2, 0, 0, 0))  # off the span: coordinate sum 2


def test_in_root_lattice_is_false_off_the_span():
    e7, e6 = ambient("E7"), ambient("E6")
    assert ambient("E8").in_root_lattice((0,) * 6 + (2, 2))
    assert not e7.in_root_lattice((0,) * 6 + (2, 2))  # e7 + e8: the span has x7 + x8 = 0
    assert e7.in_root_lattice((0,) * 6 + (2, -2))
    assert not e6.in_root_lattice((0,) * 5 + (2, 2, 0))  # e6 + e7
    assert e7.in_root_lattice((0,) * 4 + (2, 2, 0, 0))
    assert not e6.in_root_lattice((0,) * 4 + (2, 2, 0, 0))  # e5 + e6: the span has x6 + x7 = 0
    assert e6.in_root_lattice((2, 2) + (0,) * 6)


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_in_root_lattice_takes_the_e8_roots_in_the_span(name):
    # a norm-2 vector of a root lattice is a root: of E8's roots, exactly those
    # of the smaller system are in its lattice
    rs = ambient(name)
    assert [x for x in ambient("E8").doubled if rs.in_root_lattice(x)] == list(rs.doubled)


@pytest.mark.parametrize("name", ROOT_SYSTEM_NAMES)
def test_every_root_is_in_its_root_lattice(name):
    # the hypothesis of the law by which check_projection_laws tests the
    # mirror's lattice once per +- pair of label vectors
    rs = ambient(name)
    assert all(rs.in_root_lattice(x) for x in rs.doubled)


# the oracle sweep: these names in each of E8, E7, E6 and D8 where they embed
ORACLE_SWEEP = list(dict.fromkeys(dg.catalog_names() + ["E8"] + [f"A{n}" for n in range(1, 9)]
                                  + [f"D{n}" for n in range(4, 9)]
                                  + [f"D8(a{k})" for k in range(1, 6)]))


def sweep_embeddings():
    """The first embedding of each ``ORACLE_SWEEP`` name in E8, E7, E6 and D8
    where it embeds: 90 cases."""
    embs = [embedding_in(name, amb) for amb in ("E8", "E7", "E6", "D8") for name in ORACLE_SWEEP]
    embs = [e for e in embs if e is not None]
    assert len(embs) == 90
    return embs


def test_mirror_is_in_the_lattice_exactly_when_twice_the_projection_is():
    # the root lattice is a group holding gamma, so 2 gamma_L - gamma is in it
    # exactly when 2 gamma_L is: the law that lets check_projection_laws test
    # the mirror once per +- pair of label vectors.  Here both sides are
    # tested root by root, gamma_L from the Fraction reference, doubled as
    # 4 gamma_L
    outcomes = Counter()
    for e in sweep_embeddings():
        amb = e.ambient
        for r, _, gamma_l, _ in ref_realized(e):
            if any((4 * a).denominator != 1 for a in gamma_l):
                continue
            g2 = tuple(int(4 * a) for a in gamma_l)
            mirror = tuple(a - b for a, b in zip(g2, amb.doubled[r.index]))
            assert amb.in_root_lattice(mirror) == amb.in_root_lattice(g2), \
                (e.diagram.name, amb.name)
            outcomes[amb.in_root_lattice(g2)] += 1
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("name,i,text", [
    ("E8", 3, "root 3 (-1,0,0,0,-1,0,0,0)"),
    ("E8", 120, "root 120 (0,0,0,0,0,0,1,-1)"),
    ("E8", 239, "root 239 (1,1,0,0,0,0,0,0)"),
    ("E8", 45, "root 45 (-1/2,-1/2,1/2,1/2,1/2,1/2,1/2,1/2)"),
    ("D5", 0, "root 0 (-1,-1,0,0,0)"),
    ("A4", 7, "root 7 (0,0,-1,0,1)"),
])
def test_name_root_writes_the_index_and_the_coordinates(name, i, text):
    rs = ambient(name)
    assert rs.name_root(i) == ref_root_text(rs, i) == text


@pytest.mark.parametrize("i", [-1, 240, 1.0, True, "3"])
def test_name_root_rejects_an_index_of_no_root(i):
    # -1 once named root 239 as "root -1", True named root 1, and 240, 1.0
    # and "3" leaked IndexError or TypeError
    with pytest.raises(rt.RootSystemError, match=f"^E8: no root of index {re.escape(repr(i))}$"):
        ambient("E8").name_root(i)


@pytest.mark.parametrize("name,x", [("E7", (1, -1)), ("E8", (1,) * 9), ("A4", (1, -1, 0, 0)),
                                    ("D5", (1, 1, 0, 0, 0, 0))])
def test_in_root_lattice_rejects_a_vector_of_another_length(name, x):
    with pytest.raises(rt.RootSystemError, match=f"^{name}: vector of length {len(x)}, expected "):
        ambient(name).in_root_lattice(x)


@pytest.mark.parametrize("name,x", [("E8", (1.0,) * 8), ("E8", (2,) * 7 + (Fraction(2),)),
                                    ("D5", (2, 2, 0, 0, True)), ("A4", ("2", "-2", 0, 0, 0))])
def test_in_root_lattice_rejects_an_entry_that_is_not_an_int(name, x):
    # (1.0,) * 8 was once in E8's lattice, and a str entry leaked TypeError
    with pytest.raises(rt.RootSystemError,
                       match=f"^{name}: vector {re.escape(str(x))} is not a doubled integer vector$"):
        ambient(name).in_root_lattice(x)


@pytest.mark.parametrize("name", ["X4", "A1xA2", "a4", "A_4", "D4(a1)", "E9", "A0"])
def test_in_root_lattice_rejects_a_name_build_root_system_does_not_write(name):
    # the rule is read from the name, and only A<n>, D<n>, E6, E7 and E8 have
    # one; any other name once got the E8 rule, or the A or D rule by its
    # first letter, so X4 on D4's roots put (1,1,1,1) / 2 in its lattice, and
    # the hand-built A1 x A2 of the moment-law test put its own roots
    # +-(1,1,0,0,0) outside its lattice
    rs = rt.RootSystem(name, 4, 4, ambient("D4").doubled)
    assert not ambient("D4").in_root_lattice((1, 1, 1, 1))
    with pytest.raises(rt.RootSystemError,
                       match=f"^{re.escape(name)}: no root-lattice rule for this name$"):
        rs.in_root_lattice((1, 1, 1, 1))


# -- embeddings -------------------------------------------------------------------


def test_embedding_d4a1_in_d4():
    emb = embedding_in("D4(a1)", "D4")
    assert emb is not None
    g = cl.catalog("D4(a1)").gram()
    for i, x in enumerate(emb.doubled):  # doubled roots: the dot product is 4 times (x, y)
        for j, y in enumerate(emb.doubled):
            assert sum(a * b for a, b in zip(x, y)) == 4 * g[i][j]


def test_embedding_a1_is_first_root():
    emb = embedding_in("A1", "E8")
    assert emb.idx == (0,) and emb.doubled == (ambient("E8").doubled[0],)


@pytest.mark.parametrize("n", range(6, 11))
def test_e6_does_not_embed_in_dn(n):
    assert cl.find_embedding(cl.catalog("E6"), ambient(f"D{n}")) is None


def test_e8_plus_leaf_does_not_embed():
    tilde = cl.extend(cl.catalog("E8"), "b4")
    assert cl.find_embedding(tilde, ambient("E8")) is None


def test_find_embeddings_distinct():
    embs = cl.find_embeddings(cl.catalog("D4(a1)"), ambient("D5"), limit=4)
    assert len(embs) == 4
    assert len({e.idx for e in embs}) == 4


@pytest.mark.parametrize("amb,count", [("E8", 19), ("E7", 15), ("D8", 10)])
def test_an_embedding_is_its_root_indices(amb, count):
    embs = [e for name in dg.catalog_names() if (e := embedding_in(name, amb))]
    assert len(embs) == count  # the catalog names that embed
    for e in embs:
        again = rt.Embedding(e.pc, e.ambient, e.idx)
        assert again == e and hash(again) == hash(e) and type(again.idx) is tuple
        assert again.doubled == e.doubled == tuple(e.ambient.doubled[i] for i in e.idx)


@pytest.mark.parametrize("change,message", [
    (lambda idx, n: idx[:-1], "3 roots for 4 vertices of D4"),
    (lambda idx, n: idx + (0,), "5 roots for 4 vertices of D4"),
    (lambda idx, n: (n,) + idx[1:], "root of a1 is not a root of E8"),
    (lambda idx, n: idx[:-1] + (-1,), "root of b1 is not a root of E8"),
    (lambda idx, n: idx[:1] + (1.0,) + idx[2:], "root of a2 is not a root of E8"),
], ids=["short", "long", "past-the-end", "minus-one", "float"])
def test_embedding_rejects_indices_that_name_no_vertex_root(change, message):
    emb = embedding_in("D4", "E8")
    assert [v.id for v in emb.diagram.vertices] == ["a1", "a2", "a3", "b1"]
    with pytest.raises(rt.VerificationError, match=f"^{message}$"):
        rt.Embedding(emb.pc, emb.ambient, change(emb.idx, len(emb.ambient)))


def test_embedding_rejects_roots_outside_the_ambient():
    # Reflecting an embedding of D4 in the all-halves root h keeps its Gram
    # matrix and turns roots with (r, h) != 0 into half-integer roots of E8,
    # which D8 does not have.  An index names a root of its own ambient only.
    e8, d8 = ambient("E8"), ambient("D8")
    emb = embedding_in("D4", "E8")
    idx = tuple(e8.index[_ref_reflect(x, (1,) * 8)] for x in emb.doubled)
    reflected = rt.Embedding(emb.pc, e8, idx)
    assert reflected != emb and any(c % 2 for x in reflected.doubled for c in x)  # halves
    with pytest.raises(rt.VerificationError, match="^root of a1 is not a root of D8$"):
        rt.Embedding(emb.pc, d8, idx)  # E8's index of a1's root is past D8's last root
    in_d8 = [d8.index.get(x) for x in reflected.doubled]
    k = in_d8.index(None)
    v = emb.diagram.vertices[k]
    with pytest.raises(rt.VerificationError, match=f"^root of {v} is not a root of D8$"):
        rt.Embedding(emb.pc, d8, [len(d8) if i is None else i for i in in_d8])


@pytest.mark.parametrize("of_labels,of_embedding", [
    ("A6", "A5"), ("E6(a1)", "D4"), ("A5", "A6"), ("D4", "E6(a1)"), ("A3", "D4")])
def test_laws_and_audit_reject_an_embedding_that_is_not_the_labels(of_labels, of_embedding):
    dl, e = labels_in(of_labels, "E8"), embedding_in(of_embedding, "E8")
    message = f"labels of {of_labels} were not read from this embedding of {of_embedding}"
    for check in (rt.check_projection_laws, rt.square_diagonal_audit):
        with pytest.raises(ValueError) as info:
            check(dl, e)
        assert (info.type, str(info.value)) == (ValueError, message)


def test_laws_and_audit_compare_embeddings_by_value():
    # a second embedding of the same diagram is another embedding; a copy of
    # the first is the same one
    first, second = cl.find_embeddings(cl.catalog("A7"), ambient("E8"), limit=2)
    dl = cl.direct_linkage_labels(first)
    for check in (rt.check_projection_laws, rt.square_diagonal_audit):
        with pytest.raises(ValueError, match="^labels of A7 were not read from this embedding of A7$"):
            check(dl, second)
        assert check(dl, rt.Embedding(first.pc, first.ambient, first.idx)) == check(dl, first)


@pytest.mark.parametrize("index", ["next", -1, 240, 3.0, "3"])
def test_projection_laws_reject_an_index_that_does_not_name_gamma(index):
    # the laws read gamma's doubled coordinates by its index, so the index
    # must be an int index of an ambient root: -1 would alias root 239, and
    # 3.0 or "3" would leak a TypeError.  An index of another root gamma' is
    # a record of gamma' with gamma's labels v: p + |mu|^2 = 2 holds exactly
    # when (gamma', gamma_L) = labels(gamma') B^-1 v is p, so "next" names
    # the next root for which it is not
    dl = labels_in("D4(a1)", "E8")
    amb, r = dl.embedding.ambient, dl.realized[0]
    labels = rt._labels(dl.embedding)
    if index == "next":
        coeff = ref_mat_vec(ref_inverse(dl.embedding.diagram.gram()), r.labels)
        p = _fdot(r.labels, coeff)
        index = next(j for j in range(r.index + 1, len(amb)) if _fdot(labels[j], coeff) != p)
        message = f"p + |mu|^2 != 2 for {ref_root_text(amb, index)}"
    else:
        message = f"E8: no root of index {index!r}"
    bad = r._replace(index=index)
    dl = rt.DirectLabels(dl.embedding, (bad,) + dl.realized[1:], dl.labels)
    with pytest.raises(rt.VerificationError, match=f"^{re.escape(message)}$"):
        rt.check_projection_laws(dl, dl.embedding)


@pytest.mark.parametrize("how", ["moved", "appended"])
def test_projection_laws_reject_a_root_realized_twice(how):
    # in D4(a1) in E8, roots 3 and 4 share a label vector, so the first record
    # moved to root 4 passes every other law and leaves root 3 out, and the
    # first record again at the end makes the p-classes count 193 roots of 192
    dl = labels_in("D4(a1)", "E8")
    amb, first = dl.embedding.ambient, dl.realized[0]
    twin = next(r for r in dl.realized[1:] if r.labels == first.labels)
    assert (first.index, twin.index) == (3, 4)
    if how == "moved":
        realized, i = (first._replace(index=twin.index),) + dl.realized[1:], twin.index
    else:
        realized, i = dl.realized + (first,), first.index
    message = f"{ref_root_text(amb, i)} is realized twice"
    with pytest.raises(rt.VerificationError, match=f"^{re.escape(message)}$"):
        rt.check_projection_laws(rt.DirectLabels(dl.embedding, realized, dl.labels), dl.embedding)


@pytest.mark.parametrize("labels", [lambda v: v + (0,), lambda v: v + (5,), lambda v: v[:-1]],
                         ids=["zero-appended", "five-appended", "last-dropped"])
def test_projection_laws_reject_labels_of_the_wrong_length(labels):
    # the projection's dot products stop at the shorter input, so a label
    # appended to a realized root's labels once left the report unchanged
    dl = labels_in("D4(a1)", "E8")
    r = dl.realized[0]
    bad = r._replace(labels=labels(r.labels))
    realized = (bad,) + dl.realized[1:]
    message = (f"labels of {ref_root_text(dl.embedding.ambient, r.index)} have length "
               f"{len(bad.labels)}, not 4")
    with pytest.raises(rt.VerificationError, match=f"^{re.escape(message)}$"):
        rt.check_projection_laws(rt.DirectLabels(dl.embedding, realized, dl.labels), dl.embedding)


@pytest.mark.parametrize("labels", [list, lambda v: (float(v[0]),) + v[1:],
                                    lambda v: (v[0] == 1,) + v[1:], lambda v: v[:-1] + ("0",),
                                    lambda v: ([v[0]],) + v[1:]],
                         ids=["list", "float-entry", "bool-entry", "str-entry", "list-entry"])
def test_projection_laws_reject_labels_that_are_not_a_tuple_of_ints(labels):
    # a list of labels, and then a tuple holding a list, whose entry lookup
    # hashed it before the int check, once leaked TypeError: unhashable type
    dl = labels_in("D4(a1)", "E8")
    r = dl.realized[0]
    realized = (r._replace(labels=labels(r.labels)),) + dl.realized[1:]
    message = f"labels of {ref_root_text(dl.embedding.ambient, r.index)} are not a tuple of ints"
    with pytest.raises(rt.VerificationError, match=f"^{re.escape(message)}$"):
        rt.check_projection_laws(rt.DirectLabels(dl.embedding, realized, dl.labels), dl.embedding)


def test_projection_laws_check_the_labels_once_per_label_vector():
    # labels equal to a checked vector share its entry, so a float entry after
    # the same ints passes, with the same report
    dl = labels_in("D4(a1)", "E8")
    e = dl.embedding
    assert dl.realized[0].labels == dl.realized[3].labels == (1, 1, 0, -1)
    realized = list(dl.realized)
    realized[3] = realized[3]._replace(labels=(1.0, 1, 0, -1))
    assert rt.check_projection_laws(rt.DirectLabels(e, tuple(realized), dl.labels), e) == \
        rt.check_projection_laws(dl, e)


@pytest.mark.parametrize("which", ["in-the-span", "orthogonal"])
def test_projection_laws_reject_a_root_that_does_not_extend(which):
    # an embedded root (p = 2, mu = 0) and a root with zero labels (p = 0,
    # mu = gamma): both pass p + |mu|^2 = 2
    dl = labels_in("D4(a1)", "E8")
    e = dl.embedding
    labels = rt._labels(e)
    i = e.idx[0] if which == "in-the-span" else labels.index((0,) * len(e.idx))
    bad = rt.RealizedLinkage(i, labels[i])
    message = f"{ref_root_text(e.ambient, i)} does not extend the embedding"
    with pytest.raises(rt.VerificationError, match=f"^{re.escape(message)}$"):
        rt.check_projection_laws(rt.DirectLabels(e, (bad,) + dl.realized, dl.labels), e)


# -- kept label columns -------------------------------------------------------------


@pytest.mark.parametrize("name", ["E6", "E7", "E8"] + [f"D{n}" for n in range(4, 9)] +
                         [f"A{n}" for n in range(1, 9)])
def test_label_columns_are_the_inner_products(name):
    rs = cl.build_root_system(name)
    for i, x in enumerate(rs.doubled):
        assert rs._column(i) == tuple(_dot(x, y) // 4 for y in rs.doubled), (name, i)


def _bit_formatted_labels(e):
    """The reference label scan: the -1- and +1-bitsets of each embedded root
    formatted into binary strings, read digit by digit."""
    n = len(e.ambient)
    cols = []
    for i in e.idx:
        minus, _, plus = e.ambient.ip_bits[i]
        col = [int(a) - int(b) for a, b in zip(f"{plus:0{n}b}"[::-1], f"{minus:0{n}b}"[::-1])]
        col[i], col[n - 1 - i] = 2, -2
        cols.append(col)
    return list(zip(*cols))


@pytest.mark.parametrize("amb", ["E8", "E7", "D8"])
def test_labels_match_the_bit_formatted_reference(amb):
    for name in dg.catalog_names():
        for e in cl.find_embeddings(cl.catalog(name), ambient(amb), limit=3):
            assert rt._labels(e) == _bit_formatted_labels(e), (amb, name)


def test_labels_are_a_new_list_that_a_caller_may_write_into():
    e = embedding_in("E6(a1)", "E8")
    rows = rt._labels(e)
    again = rt._labels(e)
    assert rows == again and rows is not again
    rows[:] = [(9,) * 6] * len(rows)
    assert rt._labels(e) == again
    assert rt.direct_linkage_labels(e) == labels_in("E6(a1)", "E8")


def test_the_verify_sequence_builds_each_column_it_reads_once(monkeypatch):
    # the scan, the laws, the audit and the three trials of every catalog
    # diagram in one E8 build the column of each embedded root once, and a
    # copy of the root system shares the kept columns
    built = []
    real = rt.RootSystem._build_column
    monkeypatch.setattr(rt.RootSystem, "_build_column",
                        lambda self, i: built.append(i) or real(self, i))
    e8 = cl.build_root_system("E8")
    used = set()
    for name in dg.catalog_names():
        d = cl.catalog(name)
        e = cl.find_embedding(d, e8)
        dl = rt.direct_linkage_labels(e)
        rt.check_projection_laws(dl, e)
        rt.square_diagonal_audit(dl, e)
        rt.embedding_independence(d, e8, 3)
        used.update(i for f in cl.find_embeddings(d, e8, limit=3) for i in f.idx)
    assert sorted(built) == sorted(used) and 8 <= len(used) < len(e8)
    twin = copy.copy(e8)
    assert twin._columns is e8._columns and twin._column(built[0]) is e8._column(built[0])


def test_a_copy_given_its_own_ip_bits_reads_its_own_columns():
    # once shared the original's kept columns: _labels read 0 where _build_column read 1
    e8 = ambient("E8")
    e = embedding_in("D4", "E8")
    rt._labels(e)  # keeps the columns of the embedded roots
    i = e.idx[0]
    minus, zero, plus = e8.ip_bits[i]
    j = (zero & -zero).bit_length() - 1  # the lowest root of root i's 0-set
    twin = copy.copy(e8)
    assert twin._columns is e8._columns
    twin.ip_bits = tuple((minus, zero & ~(1 << j), plus | 1 << j) if k == i else row
                         for k, row in enumerate(e8.ip_bits))
    moved = rt.Embedding(e.pc, twin, e.idx)
    assert rt._labels(moved)[j][0] == twin._build_column(i)[j] == 1
    assert rt._labels(e)[j][0] == e8._build_column(i)[j] == 0


# -- +- pairs of label vectors ------------------------------------------------------


def _negated(v):
    return tuple(-t for t in v)


def _classes(rows):
    """The +- classes of the rows, each named by its member above zero."""
    return {max(v, _negated(v)) for v in rows}


def _every_row_filter(pc, rows):
    """The reference of ``_extending``: ``_extends`` read at every distinct row."""
    return {v for v in set(rows) if rt._extends(form_num(pc, v), pc.inv_den)}


def test_extension_filter_equals_the_every_row_reference_on_the_sweep():
    for e in sweep_embeddings():
        rows = rt._labels(e)
        assert rt._extending(e.pc, rows) == _every_row_filter(e.pc, rows), \
            (e.ambient.name, e.diagram.name)


@pytest.mark.parametrize("name", ["D4(a1)", "E8"])
def test_extension_filter_equals_the_reference_on_rows_not_closed_under_negation(name):
    # every vector of {-1,0,1}^l whose last label is not -1: the zero vector,
    # pairs whose last label is 0, and vectors ending in 1 without their
    # negatives, some above zero and some below; form >= 2 occurs too
    pc = pc_of(name)
    rows = [v for v in itertools.product((-1, 0, 1), repeat=len(pc)) if v[-1] >= 0]
    zero = (0,) * len(pc)
    lone = [v for v in rows if _negated(v) not in rows]
    assert zero in rows and any(v > zero for v in lone) and any(v < zero for v in lone)
    want = _every_row_filter(pc, rows)
    assert rt._extending(pc, rows) == want
    assert want & set(lone) and set(lone) - want


@pytest.mark.parametrize("amb", ["E8", "E7", "D8"])
def test_the_label_scans_evaluate_the_form_once_per_pair_of_rows(amb, monkeypatch):
    # one evaluation per +- class of distinct rows, at its member above zero
    # (the zero vector is its own class): the scan reads one embedding's rows;
    # the trials that follow it on the same diagram read the decisions kept on
    # its pc and evaluate only the classes of the other embeddings' rows
    calls = []
    real = rt.form_num
    monkeypatch.setattr(rt, "form_num", lambda pc, v: calls.append(v) or real(pc, v))
    rs = ambient(amb)
    for name in dg.catalog_names():
        d = cl.catalog(name)
        embs = cl.find_embeddings(d, rs, limit=3)
        if not embs:
            continue
        calls.clear()
        rt.direct_linkage_labels(embs[0])
        assert sorted(calls) == sorted(_classes(rt._labels(embs[0]))), (amb, name)
        rt.embedding_independence(d, rs, 3)
        assert sorted(calls) == sorted(_classes(v for e in embs for v in rt._labels(e))), \
            (amb, name)


def test_a_hand_built_partial_cartan_does_not_read_the_kept_decisions(monkeypatch):
    # a pc equal by value to the diagram's own but with another inv_num, as
    # the inverse-form fault builds: it is a new object, so it decides every
    # +- class again with its own form and leaves the kept decisions alone
    d = cl.catalog("E6(a1)")
    e = cl.find_embedding(d, ambient("E8"))
    rows = rt._labels(e)
    own = rt._extending(e.pc, rows)
    kept = dict(e.pc._extends)
    num = [list(row) for row in e.pc.inv_num]
    num[0][0] += 1
    pc = cl.PartialCartan(d, e.pc.det, e.pc.gram, tuple(map(tuple, num)), e.pc.inv_den)
    assert pc == e.pc and cl.build_partial_cartan(d) is e.pc
    calls = []
    real = rt.form_num
    monkeypatch.setattr(rt, "form_num", lambda pc, v: calls.append(v) or real(pc, v))
    changed = rt._extending(pc, rows)
    assert sorted(calls) == sorted(_classes(rows))
    assert changed == _every_row_filter(pc, rows) != own
    assert e.pc._extends == kept


def test_the_verify_sequence_in_e8_leaves_no_reference_cycle():
    # what verify runs, on fresh diagrams: the diagram's reference to its pc
    # is weak, as pc.diagram is the diagram and a strong one closes a cycle
    e8 = ambient("E8")

    def verify_all():
        for name in dg.catalog_names():
            d = cl.catalog(name)
            pc = cl.build_partial_cartan(d)
            cl.build_system(pc)
            e = cl.find_embedding(d, e8)
            dl = cl.direct_linkage_labels(e)
            rt.check_projection_laws(dl, e)
            rt.square_diagonal_audit(dl, e)
            rt.embedding_independence(d, e8, 3)

    assert len(dg.catalog_names()) == 19
    assert cycles_left_by(verify_all) == 0


def test_laws_report_does_not_depend_on_which_sign_comes_first():
    # the scan lists root i before its negative n - 1 - i; reversed, the laws
    # compute -v and derive v for every pair of label vectors
    for e in sweep_embeddings():
        dl = cl.direct_linkage_labels(e)
        reversed_dl = rt.DirectLabels(e, dl.realized[::-1], dl.labels)
        assert rt.check_projection_laws(reversed_dl, e) == rt.check_projection_laws(dl, e), \
            (e.ambient.name, e.diagram.name)


@pytest.mark.parametrize("amb", ["E8", "E7", "D8"])
def test_projection_laws_hold_on_one_sign_of_each_pair(amb):
    # the realized roots whose labels lie above zero: no entry is derived, and
    # the p-classes, the mirror roots and the (p, |mu|^2) sizes are the Fraction
    # reference's on those roots
    roots = {ref_root(x) for x in ambient(amb).doubled}
    for name in dg.catalog_names():
        e = embedding_in(name, amb)
        if e is None:
            continue
        zero = (0,) * len(e.idx)
        dl = labels_in(name, amb)
        kept = rt.DirectLabels(e, tuple(r for r in dl.realized if r.labels > zero), dl.labels)
        ref = [(p, gamma_l, mu) for r, p, gamma_l, mu in reference_realized(e) if r.labels > zero]
        # -gamma has the labels -v, and exactly one of v and -v lies above zero
        assert 2 * len(kept.realized) == 2 * len(ref) == len(dl.realized), name
        rep = rt.check_projection_laws(kept, e)
        assert rep.p_classes == tuple(sorted(Counter(p for p, _, _ in ref).items())), name
        assert rep.mirror_roots == sum(tuple(a - b for a, b in zip(gamma_l, mu)) in roots
                                       for _, gamma_l, mu in ref), name
        got = Counter()
        for p, mu2, size in rep.orbits:
            got[p, mu2] += size
        assert got == Counter((p, _fdot(mu, mu)) for p, _, mu in ref), name


# -- direct labels ----------------------------------------------------------------


def test_d4a1_in_d5_labels():
    dl = labels_in("D4(a1)", "D5")
    assert len(dl.labels) == 8
    # sixteen roots +-e_i +- e_5 fold onto the 8 labels pairwise, all of p = 1
    assert len(dl.realized) == 16
    assert rt.check_projection_laws(dl, dl.embedding).p_classes == ((1, 16),)


def _flipped(rows, k, *indices):
    """``rows`` with the label at vertex k negated on the roots ``indices``."""
    rows = list(rows)
    for i in indices:
        rows[i] = rows[i][:k] + (-rows[i][k],) + rows[i][k + 1:]
    return rows


@pytest.mark.parametrize("name,flips", [("A5", 480), ("A6", 552)])
def test_every_label_flip_is_caught(name, flips, monkeypatch):
    # a nonzero label of a realized root negated breaks L^T 1 = 0; negated on
    # the root's negative too, it breaks L^T L = (2|Phi| / n) B when the root
    # has another nonzero label, and otherwise swaps the label vectors of the
    # two roots, which p + |mu|^2 = 2 catches
    e = embedding_in(name, "E8")
    rows, amb = rt._labels(e), e.ambient
    cases = [(r, k) for r in labels_in(name, "E8").realized for k, x in enumerate(r.labels) if x]
    assert len(cases) == flips
    for r, k in cases:
        neg = amb.index[tuple(-c for c in amb.doubled[r.index])]
        monkeypatch.setattr(rt, "_labels", lambda e: _flipped(rows, k, r.index))
        with pytest.raises(rt.VerificationError, match=f"^labels at {e.diagram.vertices[k]} "):
            rt.direct_linkage_labels(e)
        monkeypatch.setattr(rt, "_labels", lambda e: _flipped(rows, k, r.index, neg))
        if sum(map(bool, r.labels)) > 1:
            with pytest.raises(rt.VerificationError, match="^label moment at "):
                rt.direct_linkage_labels(e)
        else:
            with pytest.raises(rt.VerificationError, match=r"^p \+ \|mu\|\^2 != 2 for "):
                rt.check_projection_laws(rt.direct_linkage_labels(e), e)


def test_moment_law_constants_are_integers_and_hold_for_a1_in_d2():
    # 2|Phi| / n is an integer for every root system built, and each meets the
    # law's hypothesis; D2 = A1 x A1 is reducible, but its two factors are
    # equal, so sum_r r r^T = 4 I still: the labels 2, -2, 0, 0 of A1 have
    # L^T L = 8 = 4 B
    for name in ROOT_SYSTEM_NAMES:
        assert 2 * len(ambient(name)) % ambient(name).rank == 0, name
        assert ambient(name)._scalar_moment, name
    dl = cl.direct_linkage_labels(embedding_in("A1", "D2"))
    assert sorted(rt._labels(dl.embedding)) == [(-2,), (0,), (0,), (2,)]
    assert (dl.realized, dl.labels) == ((), ())


def test_moment_law_hypothesis_rejects_factors_of_two_scalars():
    # A1 x A2: sum_r r r^T is 4 on the span of A1 and 6 on that of A2, so no
    # one scalar 2|Phi| / n = 16 / 3 exists; the scan of A1 stops before the
    # moment law it cannot meet, and says the ambient is at fault
    a1xa2 = rt.RootSystem("A1xA2", 3, 5, _pm((2, 2, 0, 0, 0), (0, 0, 2, -2, 0),
                                             (0, 0, 2, 0, -2), (0, 0, 0, 2, -2)))
    e = cl.find_embedding(cl.catalog("A1"), a1xa2)
    assert e.idx == (0,)
    with pytest.raises(rt.RootSystemError, match=r"^A1xA2: sum_r \(r, y\)\^2 is 8 at root 0, "
                                                 r"not 4\|Phi\| / n = 32/3$"):
        cl.direct_linkage_labels(e)


def test_moment_law_hypothesis_holds_for_equal_factors():
    # A2 x A2 is reducible, but its factors are equal: sum_r (r, y)^2 = 12 =
    # 4 * 12 / 4 at every root, and A1 and A2 scan cleanly in it; A1 meets 4
    # roots of its factor off its span, and A2 spans its factor
    a2xa2 = rt.RootSystem("A2xA2", 4, 6, _pm(*[
        tuple(2 if k == i else -2 if k == j else 0 for k in range(6))
        for base in (0, 3) for i in range(base, base + 3) for j in range(i + 1, base + 3)]))
    assert a2xa2._scalar_moment
    for name, realized in (("A1", 4), ("A2", 0)):
        e = cl.find_embedding(cl.catalog(name), a2xa2)
        assert len(cl.direct_linkage_labels(e).realized) == realized, name


@pytest.mark.parametrize("name", CATALOG)
def test_labels_over_e8_equal_enumeration(name):
    assert set(labels_in(name, "E8").labels) == set(links_of(name))


def test_e6_dynkin_in_e6_spans_everything():
    dl = labels_in("E6", "E6")
    assert dl.labels == () and dl.realized == ()


@pytest.mark.parametrize("l", [5, 6, 7])
def test_d_family_in_next_d_realizes_p1_class(l):
    for k in range(1, (l - 2) // 2 + 1):
        d = cl.carter_D_ak(l, k)
        pc = cl.build_partial_cartan(d)
        emb = cl.find_embedding(d, ambient(f"D{l + 1}"))
        dl = cl.direct_linkage_labels(emb)
        p1 = next(s for s in group_by_p(pc, cl.enumerate_linkages(pc)) if s.p == 1)
        assert set(dl.labels) == set(p1.members)


def test_d4a1_in_d5_realizes_one_component():
    dl = labels_in("D4(a1)", "D5")
    s = system_of("D4(a1)")
    comps = [frozenset(s.nodes[i] for i in c) for c in s.components]
    assert frozenset(dl.labels) in comps


@pytest.mark.parametrize("name", CATALOG)
def test_labels_subset_in_smaller_ambient(name):
    # subset law: in any ambient the realized labels stay inside the
    # enumerated set (here the D-ambient of matching rank where one exists)
    d = cl.catalog(name)
    amb = ambient("E7")
    emb = cl.find_embedding(d, amb)
    if emb is None:
        return
    dl = cl.direct_linkage_labels(emb)
    assert set(dl.labels) <= set(links_of(name))


# -- laws -------------------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG)
def test_projection_laws_over_e8(name):
    dl = labels_in(name, "E8")
    rep = rt.check_projection_laws(dl, dl.embedding)
    for p, mu2, _size in rep.orbits:
        assert p + mu2 == 2


def test_projection_laws_d4a1_in_d5():
    dl = labels_in("D4(a1)", "D5")
    rep = rt.check_projection_laws(dl, dl.embedding)
    assert rep.p_classes == ((1, 16),)
    assert all(mu2 == 1 for _, mu2, _ in rep.orbits)


def test_d5a1_in_e8_has_both_extension_types():
    dl = labels_in("D5(a1)", "E8")
    rep = rt.check_projection_laws(dl, dl.embedding)
    assert [p for p, _ in rep.p_classes] == [1, Fraction(5, 4)]


def test_e6a1_in_e8_single_class():
    dl = labels_in("E6(a1)", "E8")
    rep = rt.check_projection_laws(dl, dl.embedding)
    assert [p for p, _ in rep.p_classes] == [Fraction(4, 3)]


def test_mirror_root_can_leave_lattice():
    # the mirror gamma_L - mu is not always a root: for the E-type extension
    # of D5(a1) it lands outside the root lattice, so only the p = 1
    # realizations have mirrors
    dl = labels_in("D5(a1)", "E8")
    rep = rt.check_projection_laws(dl, dl.embedding)
    assert rep.mirror_roots == dict(rep.p_classes)[1] == 60


@pytest.mark.parametrize("amb,embedded", [("E8", 19), ("E7", 15), ("D8", 10)])
def test_mirror_roots_match_the_record_fractions(amb, embedded):
    # the laws decide the mirror's integrality once per +- pair of label
    # vectors; here gamma_L - mu is formed root by root from the Fractions of
    # the reference
    roots = {ref_root(x) for x in ambient(amb).doubled}
    checked = 0
    for name in dg.catalog_names():
        if embedding_in(name, amb) is None:
            continue
        dl = labels_in(name, amb)
        want = sum(tuple(a - b for a, b in zip(gamma_l, mu)) in roots
                   for _, _, gamma_l, mu in reference_realized(dl.embedding))
        assert rt.check_projection_laws(dl, dl.embedding).mirror_roots == want, name
        checked += 1
    assert checked == embedded


@pytest.mark.parametrize("amb", ["E8", "E7", "D8"])
def test_laws_report_orbits_match_the_fraction_reference(amb):
    # orbits reports |mu|^2 as 2 - p, by the law p + |mu|^2 = 2 that the laws
    # check root by root; the reference computes |mu|^2 from mu.  Per
    # (p, |mu|^2), the slice sizes add up to the reference's roots
    for name in dg.catalog_names():
        if embedding_in(name, amb) is None:
            continue
        dl = labels_in(name, amb)
        got = Counter()
        for p, mu2, size in rt.check_projection_laws(dl, dl.embedding).orbits:
            got[p, mu2] += size
        assert got == Counter((p, _fdot(mu, mu))
                              for _, p, _, mu in reference_realized(dl.embedding)), name


@pytest.mark.parametrize("amb", ["E8", "E7", "D8"])
def test_p_classes_add_up_to_the_moment_law(amb):
    # sum_p p n_p + 2 (roots in the span) = (2|Phi| / n) l, which the moment
    # law of the label scan forces; the roots with nonzero labels that are not
    # realized are the roots in the span
    rs = ambient(amb)
    for name in dg.catalog_names():
        e = embedding_in(name, amb)
        if e is None:
            continue
        dl = labels_in(name, amb)
        span = sum(any(_dot(x, y) for y in e.doubled) for x in rs.doubled) - len(dl.realized)
        total = sum(p * n for p, n in rt.check_projection_laws(dl, e).p_classes) + 2 * span
        assert total == Fraction(2 * len(rs), rs.rank) * len(e.idx), name


SWEEP_NAMES = dg.catalog_names() + ["A7", "D8"] + [f"D8(a{k})" for k in range(1, 6)]


@lru_cache(maxsize=None)
def vertex_order_sweep():
    """(ambient, name, labels, dl, laws) for each name of ``SWEEP_NAMES`` that
    embeds, in E8, E7, E6 and D8, in its catalog vertex order and under
    ``shuffled`` seeds 1-5; ``labels`` is the direct label set mapped back
    to the catalog vertex order, which tells the embedding classes apart."""
    runs = []
    for amb in ("E8", "E7", "E6", "D8"):
        for name in SWEEP_NAMES:
            canon = cl.catalog(name)
            for d in [canon] + [shuffled(canon, seed) for seed in range(1, 6)]:
                e = cl.find_embedding(d, ambient(amb))
                if e is None:
                    continue
                dl = cl.direct_linkage_labels(e)
                at = [d.vertices.index(v) for v in canon.vertices]
                labels = frozenset(tuple(lab[i] for i in at) for lab in dl.labels)
                runs.append((amb, name, labels, dl, rt.check_projection_laws(dl, e)))
    return runs


def test_extension_orbits_do_not_depend_on_the_vertex_order():
    # orbit_count, the slices and the p-classes are properties of the
    # embedding's class: equal for every vertex order that gives one direct
    # label set.  A7 in E8 has two classes, of 184 and 56 labels
    seen = {}
    for amb, name, labels, _, laws in vertex_order_sweep():
        got = (laws.orbit_count, laws.orbits, laws.p_classes)
        assert seen.setdefault((amb, name, labels), got) == got, (amb, name)
    a7 = {len(labels): got[0] for (amb, name, labels), got in seen.items()
          if (amb, name) == ("E8", "A7")}
    assert a7 == {184: 1, 56: 2}


def test_extension_orbit_slices_partition_the_realized_roots():
    # each realized root lands in exactly one slice: the sizes add up to the
    # realized roots, and per p to the p-classes
    for amb, name, _, dl, laws in vertex_order_sweep():
        per_p = Counter()
        for p, _, size in laws.orbits:
            per_p[p] += size
        assert sum(per_p.values()) == len(dl.realized), (amb, name)
        assert per_p == dict(laws.p_classes), (amb, name)


# -- square audit -----------------------------------------------------------------


def _square_rule(g_u, g_w, b_u, b_w):
    """The center label the square law gives for the sides (gamma, u),
    (gamma, w), (center, u) and (center, w): 0 for an odd number of dotted
    (+1) sides, (gamma, u)(center, u) for an even number."""
    return 0 if g_u * g_w * b_u * b_w < 0 else g_u * b_u


def _positive_definite(rows):
    """Whether a symmetric matrix is positive definite: every pivot of its
    LDL^T elimination, in Fractions, is positive."""
    a = [[Fraction(x) for x in row] for row in rows]
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True


def test_square_law_holds_exactly_when_the_square_gram_is_positive_definite():
    # the Gram matrix of (u, center, w, gamma), u and w orthogonal, is a
    # principal minor of [[B, v], [v^T, 2]] for the labels v, positive
    # definite when p < 2; so p < 2 forces the law, and the audit checks nothing
    cases = []
    for g_u, g_w, b_u, b_w in itertools.product((-1, 1), repeat=4):
        for x in (-1, 0, 1):
            gram = [[2, b_u, 0, g_u], [b_u, 2, b_w, x], [0, b_w, 2, g_w], [g_u, x, g_w, 2]]
            cases.append(_positive_definite(gram) == (x == _square_rule(g_u, g_w, b_u, b_w)))
    assert len(cases) == 48 and all(cases)


def test_square_audit_counts_match_a_reference_of_the_law():
    # in E8, every square's center label is the law's, and the audit counts
    # the squares and those with a nonzero center label as the reference does
    names = dg.catalog_names()
    assert len(names) == 19
    for name in names:
        dl = labels_in(name, "E8")
        d, g = dl.embedding.diagram, dl.embedding.pc.gram
        checked = with_diagonal = 0
        for r in dl.realized:
            lab = r.labels
            for u, w in itertools.combinations(range(len(d)), 2):
                if d.vertices[u].color != d.vertices[w].color or not (lab[u] and lab[w]):
                    continue
                for m in range(len(d)):
                    if m not in (u, w) and g[u][m] and g[w][m]:
                        assert lab[m] == _square_rule(lab[u], lab[w], g[u][m], g[w][m]), \
                            (name, r.index)
                        checked += 1
                        with_diagonal += lab[m] != 0
        assert tuple(rt.square_diagonal_audit(dl, dl.embedding)) == \
            (checked, with_diagonal, checked - with_diagonal), name


@pytest.mark.parametrize("name", ["D5(a1)", "E6(a1)"])
def test_square_audit_zero_violations(name):
    dl = labels_in(name, "E8")
    audit = rt.square_diagonal_audit(dl, dl.embedding)
    assert audit.checked > 0
    assert audit.checked == audit.with_diagonal + audit.without_diagonal


@pytest.mark.parametrize("labels,message", [
    (lambda v: v[:2], "have length 2, not 5"), (lambda v: None, "are not a tuple of ints"),
    (list, "are not a tuple of ints"), (lambda v: v + (0,), "have length 6, not 5")],
    ids=["cut-to-2", "none", "list", "zero-appended"])
def test_square_audit_rejects_malformed_labels_as_the_laws_do(labels, message):
    # the audit indexed the labels unchecked, so the first two leaked
    # IndexError and TypeError, and an appended label passed; both checks
    # share the laws' label check and its messages
    dl = labels_in("D5(a1)", "E8")
    e, r = dl.embedding, dl.realized[0]
    bad = rt.DirectLabels(e, (r._replace(labels=labels(r.labels)),) + dl.realized[1:], dl.labels)
    text = f"labels of {ref_root_text(e.ambient, r.index)} {message}"
    for check in (rt.check_projection_laws, rt.square_diagonal_audit):
        with pytest.raises(rt.VerificationError) as info:
            check(bad, e)
        assert str(info.value) == text, check.__name__


# -- independence -----------------------------------------------------------------


def test_embedding_independence_d4a1_d6():
    rep = rt.embedding_independence(cl.catalog("D4(a1)"), ambient("D6"), 5)
    assert rep.embeddings == 5 and len(rep.labels) == 8


def test_embedding_independence_e6a1_e8():
    rep = rt.embedding_independence(cl.catalog("E6(a1)"), ambient("E8"), 3)
    assert rep.embeddings == 3 and len(rep.labels) == 54


def test_embedding_independence_with_one_trial():
    rep = rt.embedding_independence(cl.catalog("E6(a1)"), ambient("E8"), 1)
    assert rep.embeddings == 1 and len(rep.label_sets) == 1 and len(rep.labels) == 54


def test_embedding_independence_a1():
    rep = rt.embedding_independence(cl.catalog("A1"), ambient("D4"), 3)
    assert rep.embeddings == 3


def test_embedding_independence_reports_each_embedding_class():
    # E8 holds two classes of A7 subsystems, realizing 184 and 56 vectors
    d = cl.catalog("A7")
    rep = rt.embedding_independence(d, ambient("E8"), 3)
    enum = set(cl.enumerate_linkages(cl.build_partial_cartan(d)))
    assert rep.embeddings == 3
    assert [len(s) for s in rep.label_sets] == [184, 56]
    assert rep.labels == rep.label_sets[0]
    assert all(set(s) <= enum for s in rep.label_sets)


def test_find_embeddings_limit_below_1_finds_none():
    for limit in (0, -1):
        assert cl.find_embeddings(cl.catalog("D4"), ambient("E8"), limit=limit) == []


@pytest.mark.parametrize("amb", ["E8", "D4"])
def test_find_embeddings_rejects_a_disconnected_diagram(amb):
    # A2 + A2: its roots fit in E8 but not in D4; malformed either way, so it
    # is rejected when built and never reaches the search
    a1, b1, a2, b2 = (cl.VertexId(k, i, c) for k, i, c in
                      (("a", 1, "alpha"), ("b", 1, "beta"), ("a", 2, "alpha"), ("b", 2, "beta")))
    with pytest.raises(DiagramError, match="^two-edges: diagram is disconnected$"):
        cl.find_embeddings(cl.CarterDiagram("two-edges", (a1, b1, a2, b2),
                                            ((a1, b1, -1), (a2, b2, -1))), ambient(amb))


def test_find_embeddings_of_an_indefinite_diagram_finds_none():
    d = cl.extend(cl.catalog("D4"), "b1")  # affine D4: det 0, rank 5 <= 8
    assert cl.find_embeddings(d, ambient("E8"), limit=3) == []


def test_embeddings_share_one_partial_cartan():
    d = cl.catalog("D4(a1)")
    embs = cl.find_embeddings(d, ambient("D5"), limit=4)
    assert len(embs) == 4
    assert all(e.pc is embs[0].pc and e.diagram is e.pc.diagram for e in embs)
    assert embs[0].pc is cl.build_partial_cartan(d)


def test_embedding_search_leaves_no_reference_cycle():
    d, e8 = cl.catalog("E6(a1)"), ambient("E8")
    assert cycles_left_by(lambda: cl.find_embeddings(d, e8, limit=3)) == 0


def test_embedding_independence_rejects_trials_below_1():
    for trials in (0, -3):
        with pytest.raises(ValueError):
            rt.embedding_independence(cl.catalog("D4(a1)"), ambient("D5"), trials)


@pytest.mark.parametrize("n", [2.5, "3", None, True])
def test_a_limit_or_trials_that_is_not_an_int_is_named(n):
    # 2.5 once leaked islice's ValueError, "3" a TypeError, and True searched once
    d, amb = cl.catalog("D4"), ambient("E8")
    with pytest.raises(ValueError, match=f"^limit must be an int, got {re.escape(repr(n))}$"):
        cl.find_embeddings(d, amb, n)
    with pytest.raises(ValueError, match=f"^trials must be an int, got {re.escape(repr(n))}$"):
        rt.embedding_independence(d, amb, n)


class _CountingRows(tuple):
    """Inner-product bitsets that count the rows read, and those of root 0."""

    reads = lowest = 0

    def __getitem__(self, i):
        self.reads += 1
        self.lowest += i == 0
        return super().__getitem__(i)


def test_a_diagram_that_does_not_embed_is_settled_below_the_lowest_root(monkeypatch):
    # D7(a1) does not embed into E7; without the level-0 rule the search
    # would go on to try each of the other 125 roots for the first vertex,
    # and place root 0 again below some of them
    d, e7 = cl.catalog("D7(a1)"), copy.copy(ambient("E7"))
    e7.ip_bits = rows = _CountingRows(e7.ip_bits)
    assert cl.find_embedding(d, e7) is None
    one_subtree, rows.reads, rows.lowest = rows.reads, 0, 0
    assert cl.find_embeddings(d, e7, limit=3) == []
    assert rows.reads == one_subtree > 0 and rows.lowest == 1
    calls = []
    search = rt.find_embeddings
    monkeypatch.setattr(rt, "find_embeddings", lambda *a, **k: calls.append(a) or search(*a, **k))
    rows.reads = 0
    with pytest.raises(rt.VerificationError, match=r"^D7\(a1\) does not embed into E7$"):
        rt.embedding_independence(d, e7, 3)
    assert len(calls) == 1 and rows.reads == one_subtree


# -- weight orbits ----------------------------------------------------------------


def test_weight_orbit_sizes():
    assert len(cl.weight_orbit(pc_of("E6"), "b2")) == 27
    assert len(cl.weight_orbit(pc_of("E6"), "b3")) == 27
    assert len(cl.weight_orbit(pc_of("E7"), "a4")) == 56
    for l in range(4, 13):
        pc = cl.build_partial_cartan(cl.dynkin_D(l))
        v = next(u for u in pc.diagram.vertices if cl.inverse_diagonal(pc, u) == 1)
        assert len(cl.weight_orbit(pc, v)) == 2 * l


# Every vertex of A1..A8, D4..D8, E6 and E7.  E8 is checked at its four
# vertices with orbits of at most 17280 vectors; the other four (60480 to
# 483840 vectors) take seconds each and about 100 MB in this pure-Python closure.
WEIGHT_CASES = [(name, v.id) for name in [f"A{l}" for l in range(1, 9)] +
                ["D4", "D5", "D6", "D7", "D8", "E6", "E7"] for v in cl.catalog(name).vertices] \
    + [("E8", v) for v in ("a3", "a4", "b2", "b4")]


@pytest.mark.parametrize("name,vertex", WEIGHT_CASES)
def test_weight_orbit_equals_brute_force_closure(name, vertex):
    pc = pc_of(name)
    start = tuple(int(v.id == vertex) for v in pc.diagram.vertices)
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for t in pc.diagram.vertices:
            y = cl.dual_reflect(pc, t, x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    assert cl.weight_orbit(pc, vertex) == tuple(sorted(seen))


def test_weight_orbit_equals_component():
    for name, vertex in [("E6", "b2"), ("E6", "b3"), ("D6", "a4"), ("D5", "b2")]:
        orb = set(cl.weight_orbit(pc_of(name), vertex))
        s = system_of(name)
        comps = [frozenset(s.nodes[i] for i in c) for c in s.components]
        assert frozenset(orb) in comps


def test_weight_orbit_rejects_dotted():
    with pytest.raises(Exception):
        cl.weight_orbit(pc_of("E6(a1)"), "b2")


# -- differential references --------------------------------------------------------


def _fdot(x, y):
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


@lru_cache(maxsize=None)
def reference_realized(e):
    """(record, p, gamma_L, mu) for the realized linkages of ``e`` by the
    Fraction formulas.

    labels_k = (gamma, e_k); gamma_L = sum((B^-1 labels)_k e_k);
    mu = gamma - gamma_L; p = labels^T B^-1 labels.  Roots with zero labels
    or mu = 0 are skipped.  gamma_L and p depend on the labels alone, so they
    are computed once per label vector.
    """
    b_inv = ref_inverse(e.diagram.gram())
    embedded = [ref_root(x) for x in e.doubled]
    of_labels = {}
    out = []
    for i, x in enumerate(e.ambient.doubled):
        gamma = ref_root(x)
        dots = [_fdot(gamma, r) for r in embedded]
        assert all(x.denominator == 1 for x in dots)
        labels = tuple(int(x) for x in dots)
        if not any(labels):
            continue
        if labels not in of_labels:
            coeff = ref_mat_vec(b_inv, labels)
            of_labels[labels] = (
                tuple(sum((c * r[k] for c, r in zip(coeff, embedded) if r[k]), Fraction(0))
                      for k in range(e.ambient.dim)),
                sum((x * c for x, c in zip(labels, coeff)), Fraction(0)))
        gamma_l, p = of_labels[labels]
        mu = tuple(g - h for g, h in zip(gamma, gamma_l))
        if not any(mu):
            continue
        out.append((rt.RealizedLinkage(i, labels), p, gamma_l, mu))
    return out


_REFERENCE_CASES = [("D4(a1)", "E8"), ("E6(a1)", "E8"), ("D7(a2)", "E8"), ("E7(a4)", "E8"),
                    ("D4(a1)", "D5")]


@pytest.mark.parametrize("name,amb", _REFERENCE_CASES)
def test_realized_linkages_match_fraction_reference(name, amb):
    dl = labels_in(name, amb)
    want = [r for r, *_ in reference_realized(dl.embedding)]
    assert len(dl.realized) == len(want)
    for got, ref in zip(dl.realized, want):
        for f in rt.RealizedLinkage._fields:
            assert getattr(got, f) == getattr(ref, f), (f, ref.index)
    assert dl.labels == tuple(sorted({r.labels for r in want}))


def check_against_coordinate_scan(d, amb, limit=10):
    """The labels read from the ambient's inner-product bitsets equal those of
    the coordinate label scan, on the first ``limit`` embeddings of ``d``."""
    embs = cl.find_embeddings(d, amb, limit=limit)
    if not embs:
        with pytest.raises(rt.VerificationError, match="does not embed"):
            rt.embedding_independence(d, amb, limit)
        return
    want_sets = []
    for e in embs:
        dl, want = cl.direct_linkage_labels(e), [r for r, *_ in ref_realized(e)]
        want_labels = tuple(sorted({r.labels for r in want}))
        assert list(dl.realized) == want
        assert dl.labels == want_labels
        if want_labels not in want_sets:
            want_sets.append(want_labels)
    rep = rt.embedding_independence(d, amb, limit)
    assert rep.embeddings == len(embs)
    assert rep.label_sets == tuple(want_sets)


@pytest.mark.parametrize("amb", ["E8", "E7", "D8"])
@pytest.mark.parametrize("name", CATALOG + ["E8"])
def test_labels_match_coordinate_scan(name, amb):
    check_against_coordinate_scan(cl.catalog(name), ambient(amb))


@pytest.mark.parametrize("name", CATALOG + ["E8", "A7"])
def test_extension_orbit_by_index_matches_coordinates(name):
    # the orbit the lattice keys (M, c mod D) find for each realized root is
    # the one the closure under reflections by coordinates finds, split into
    # its p-slices, with mu constant up to sign on each; A7 in E8 has |k| = 3
    for amb in ("E8", "E7", "D8"):
        e = embedding_in(name, amb)
        if e is None:
            continue
        realized = labels_in(name, amb).realized
        # the coordinate reference's p and mu
        p = {r.index: q for r, q, _, _ in ref_realized(e)}
        mu = {r.index: m for r, _, _, m in ref_realized(e)}
        den = e.pc.inv_den
        keys = [(tuple(int(2 * den * a) for a in mu[r.index]),
                 tuple(_dot(row, r.labels) % den for row in e.pc.inv_num)) for r in realized]
        keyed = {}
        for r, key in zip(realized, keys):
            keyed.setdefault(key, []).append(r)
        doubled = {e.ambient.doubled[r.index] for r in realized}
        for r, key in zip(realized, keys):
            slices = [[x for y in ys for x in keyed[y]]
                      for ys in rt._orbit_slices(keyed, key, den)]
            got = {e.ambient.doubled[x.index] for group in slices for x in group}
            assert got == ref_extension_orbit(e, e.ambient.doubled[r.index]) & doubled, \
                (r.index, amb)
            assert len({p[group[0].index] for group in slices}) == len(slices)
            for group in slices:
                m = mu[group[0].index]
                assert {mu[x.index] for x in group} <= {m, tuple(-a for a in m)}
                assert {p[x.index] for x in group} == {p[group[0].index]}
            if (name, amb) == ("A7", "E8") and _fdot(mu[r.index], mu[r.index]) == Fraction(1, 8):
                # |mu|^2 = k^2 / 8 on the slice of k
                assert [8 * _fdot(mu[g[0].index], mu[g[0].index]) for g in slices] == [1, 4, 9]


def brute_force_embeddings(d, amb, limit):
    """Plain backtracking in the search's vertex order and root order: each
    root is checked against every root already placed, with no look-ahead."""
    order = d.search_order
    g = d.gram()
    l = len(order)
    found, chosen = [], []

    def place(pos):
        if pos == l:
            roots = [None] * l
            for p, v in enumerate(order):
                roots[v] = chosen[p]
            if ref_rank(roots) == l:
                found.append(tuple(roots))
            return len(found) >= limit
        for r in map(ref_root, amb.doubled):
            if all(_fdot(r, chosen[q]) == g[order[pos]][order[q]] for q in range(pos)):
                chosen.append(r)
                if place(pos + 1):
                    return True
                chosen.pop()
        return False

    place(0)
    return found


def test_find_embeddings_match_brute_force():
    # D4(a1) does not embed into A5: there the brute force tries every root first;
    # A3 has 576 embeddings into D4, so a limit above that lists them all
    for name, amb, limit, count in [("D5(a1)", "E8", 3, 3), ("A3", "A5", 3, 3),
                                    ("E6(a1)", "E7", 3, 3), ("D4(a1)", "D5", 3, 3),
                                    ("D4(a1)", "A5", 3, 0), ("A3", "D4", 600, 576)]:
        d, rs = cl.catalog(name), ambient(amb)
        got = [tuple(map(ref_root, e.doubled)) for e in cl.find_embeddings(d, rs, limit=limit)]
        assert got == brute_force_embeddings(d, rs, limit), (name, amb)
        assert len(got) == count, (name, amb)


@pytest.mark.parametrize("name, amb, count", [("A2", "A3", 48), ("A3", "D4", 576),
                                              ("D4", "D4", 1152)])
def test_placements_in_full_match_a_scan_of_root_tuples(name, amb, count):
    d, rs = cl.catalog(name), ambient(amb)
    g, l = d.gram(), len(d)
    full = (1 << len(rs)) - 1
    got = list(dg.placements(g, d.search_order, rs.ip_bits, [full] * l))
    ip = [[_dot(x, y) // 4 for y in rs.doubled] for x in rs.doubled]  # doubled: 4 (x, y)
    scan = {x for x in itertools.permutations(range(len(rs)), l)
            if all(ip[x[i]][x[j]] == g[i][j] for i in range(l) for j in range(i))}
    assert len(got) == len(set(got)) == count
    assert set(got) == scan
    # lowest member first: lexicographic in the search order
    assert got == sorted(got, key=lambda x: [x[i] for i in d.search_order])


@pytest.mark.parametrize("amb", ["E8", "E7", "D8"])
def test_first_of_find_embeddings_is_find_embedding(amb):
    for name in CATALOG + ["E8"]:
        d, rs = cl.catalog(name), ambient(amb)
        first = cl.find_embedding(d, rs)
        assert cl.find_embeddings(d, rs, limit=3)[:1] == ([] if first is None else [first]), name


# -- generated diagrams ---------------------------------------------------------------


def _is_chain(d):
    degree = [0] * len(d)
    for u, v, _ in d.edges:
        degree[d.index_of(u)] += 1
        degree[d.index_of(v)] += 1
    return len(d.edges) == len(d) - 1 and max(degree, default=0) <= 2


@settings(max_examples=40, deadline=None)
@given(signed_bipartite_diagrams())
def test_generated_diagrams_against_e8(d):
    try:
        pc = cl.build_partial_cartan(d)
    except CartanError:
        assume(False)
    enum = cl.enumerate_linkages(pc)
    assert set(enum) == {tuple(-x for x in v) for v in enum}
    emb = cl.find_embedding(d, ambient("E8"))
    assert emb is not None  # a connected positive definite diagram spans an ADE lattice
    dl = cl.direct_linkage_labels(emb)
    if len(d) == 7 and _is_chain(d):
        # E8 holds two classes of A7 subsystems; the embedding found for a
        # signed chain may lie in the one that realizes 56 of the 184 vectors
        assert set(dl.labels) <= set(enum)
    else:
        assert set(dl.labels) == set(enum)
    rt.check_projection_laws(dl, emb)
    rt.square_diagonal_audit(dl, emb)
    check_against_coordinate_scan(d, ambient("E8"), limit=3)
