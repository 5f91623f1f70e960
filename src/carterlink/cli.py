"""Command-line surface.

Exit codes: 0 success, 1 usage or validation error, 2 verification mismatch
(an exact structural claim failed).  All output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from . import diagram as dg
from . import orbit
from . import roots as rt
from .cartan import build_partial_cartan, inverse_diagonal, simply_extendable
from .linkage import _orbit_table, beta_unicolored, enumerate_linkages, group_by_p

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def load_diagram(src: str) -> dg.CarterDiagram:
    """A diagram source is a catalog name or a path to a diagram JSON file."""
    if src.endswith(".json") or os.path.exists(src):
        with open(src, "r", encoding="utf-8") as fh:
            return dg.from_json(fh.read())
    return dg.catalog(src)


def fmt_matrix(num, den: int = 1) -> str:
    """The matrix num / den as an aligned integer grid, prefixed by 1/den
    when den > 1; den must be the least common denominator."""
    rows = [[str(x) for x in row] for row in num]
    width = max(len(x) for row in rows for x in row)
    body = "\n".join("  [ " + "  ".join(x.rjust(width) for x in row) + " ]" for row in rows)
    if den == 1:
        return body
    return f"(1/{den}) *\n{body}"


def _vec(v) -> str:
    return f"({orbit.label_of(v)})"


def cmd_catalog(args) -> int:
    for name in dg.catalog_names():
        print(name)
    print(f"A<l>            for 1 <= l <= {dg.MAX_RANK}")
    print(f"D<l>            for 4 <= l <= {dg.MAX_RANK}")
    print(f"D<l>(a<k>)      for 4 <= l <= {dg.MAX_RANK}, 1 <= k <= l-3")
    return EXIT_OK


def cmd_cartan(args) -> int:
    pc = build_partial_cartan(load_diagram(args.src))
    print(f"B_L of {pc.diagram.name}  (vertices: {', '.join(v.id for v in pc.diagram.vertices)})")
    print(fmt_matrix(pc.gram))
    if args.inverse:
        print("inverse:")
        print(fmt_matrix(pc.inv_num, pc.inv_den))
    if args.det:
        print(f"det = {pc.det}")
    return EXIT_OK


def cmd_linkages(args) -> int:
    d = load_diagram(args.src)
    pc = build_partial_cartan(d)
    vectors = enumerate_linkages(pc)
    print(f"{d.name}: {len(vectors)} linkage vectors")
    if args.group_by_p:
        for es in group_by_p(pc, vectors):
            print(f"p = {es.p}: {len(es.members)} vectors")
            for v in es.members:
                print(f"  {_vec(v)}")
    elif args.beta_unicolored:
        report = beta_unicolored(d, vectors)
        print(f"beta-unicolored: {len(report.members)}")
        for v in report.members:
            print(f"  {_vec(v)}")
        if report.center is not None:
            print(f"label at {report.center} always zero: {report.center_label_always_zero}")
    else:
        for v in vectors:
            print(f"  {_vec(v)}")
    return EXIT_OK


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_system(args) -> int:
    pc = build_partial_cartan(load_diagram(args.src))
    sys_ = orbit.build_system(pc)
    if args.format == "dot":
        text = orbit.to_dot(sys_)
    elif args.format == "json":
        text = orbit.to_json(sys_, indent=2)
    else:
        comps = ", ".join(
            f"{len(c)} (p = {p})" for c, p in zip(sys_.components, sys_.component_p)
        )
        kinds = Counter(loc.kind for loc in sys_.loctets)
        per_kind = ", ".join(f"{k}: {kinds[k]}" for k in sorted(kinds))
        text = "\n".join([
            f"linkage system of {pc.diagram.name}",
            f"  nodes: {len(sys_.nodes)}",
            f"  components: {len(sys_.components)}" + (f"  [{comps}]" if comps else ""),
            f"  loctets: {len(sys_.loctets)}" + (f"  [{per_kind}]" if per_kind else ""),
            f"  outside loctets: {len(sys_.unicolored)}",
        ])
    _emit(text, args.out)
    return EXIT_OK


def cmd_loctets(args) -> int:
    pc = build_partial_cartan(load_diagram(args.src))
    loctets = orbit.build_system(pc).loctets
    for kind in orbit.LOCTET_TYPES:
        print(f"{kind}: {len(orbit.gamma8_candidates(pc, kind))} gamma(8) candidates")
        for loc in (loc for loc in loctets if loc.kind == kind):
            print(f"  gamma(8) = {_vec(loc.members[7])}")
            for n, m in enumerate(loc.members, start=1):
                print(f"    gamma({n}) = {_vec(m)}")
    return EXIT_OK


def cmd_extendable(args) -> int:
    pc = build_partial_cartan(load_diagram(args.src))
    for v in pc.diagram.vertices:
        val = inverse_diagonal(pc, v)
        verdict = "extendable" if simply_extendable(pc, v) else "not extendable"
        print(f"{v.id}: (B^-1)_vv = {val}  ->  {verdict}")
    return EXIT_OK


def cmd_project(args) -> int:
    ext_pc = build_partial_cartan(load_diagram(args.ext))
    base_pc = build_partial_cartan(load_diagram(args.base))
    ext_sys = orbit.build_system(ext_pc)
    report = orbit.project_system(ext_sys, args.vertex, base_pc)
    print(f"projection {ext_pc.diagram.name} -> {base_pc.diagram.name} "
          f"dropping {report.dropped} (attached at {report.attach})")
    print(f"  kernel: {', '.join(_vec(v) for v in report.kernel)}")
    print(f"  nonzero images: {report.image_count} nodes onto "
          f"{report.distinct_images} base vectors")
    for ei, bi in report.loctet_pairs:
        ek = ext_sys.loctets[ei].kind
        bk = report.base_system.loctets[bi].kind
        print(f"  loctet {ei} ({ek}) -> base loctet {bi} ({bk})")
    for bi, exts in report.fibers().items():
        if len(exts) > 1:
            print(f"  base loctet {bi} is covered by ext loctets {list(exts)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    d = load_diagram(args.src)
    amb = rt.build_root_system(args.ambient)
    pc = build_partial_cartan(d)
    sys_ = orbit.build_system(pc)
    enum = sys_.nodes
    print(f"{d.name}: {len(enum)} enumerated linkage vectors")
    emb = rt.find_embedding(d, amb)
    if emb is None:
        print(f"no embedding of {d.name} into {amb.name}")
        return EXIT_OK
    print(f"embedded {d.name} into {amb.name}")
    # Over E8 a diagram of rank <= 7 realizes every linkage vector in each of
    # its embeddings, A7 (up to switching) excepted: two classes (Carter 1972,
    # Lemma 27).  A7 is the lattice type of the closure's table; a bicolored
    # diagram of 7 independent A7 roots has no triangle, so it is the chain.
    exact = amb.name == "E8" and len(d) <= 7 and _orbit_table(len(d), pc.det)[0] != "A7"
    dl = rt.direct_linkage_labels(emb)
    realized = _check_labels("direct labels", dl.labels, sys_, amb.name, exact)
    print(f"  distinct direct labels: {len(dl.labels)} (of {len(enum)} enumerated)")
    if enum:
        print(f"  realized components: {realized} of {len(sys_.components)}")
    laws = rt.check_projection_laws(dl, emb)
    classes = ", ".join(f"p = {p} ({n})" for p, n in laws.p_classes)
    print(f"  projection laws hold; {classes or 'no realized linkages'}; "
          f"{laws.orbit_count} extension orbits")
    audit = rt.square_diagonal_audit(dl, emb)
    print(f"  square audit: {audit.checked} squares, "
          f"{audit.with_diagonal} with diagonal, {audit.without_diagonal} without, 0 violations")
    if args.trials > 1:
        rep = rt.embedding_independence(d, amb, args.trials)
        for trial in rep.label_sets:
            _check_labels("trial labels", trial, sys_, amb.name, exact)
        print(f"  label sets identical across {rep.embeddings} embeddings"
              if len(rep.label_sets) == 1 else f"  distinct label sets: {len(rep.label_sets)} "
              f"across {rep.embeddings} embeddings, each inside the enumerated set")
    return EXIT_OK


def _check_labels(whose: str, labels, sys_: orbit.LinkageSystem, amb: str, exact: bool) -> int:
    """How many components of the system the labels cover.  Raises VerificationError,
    naming a witness, when a label is outside the enumeration, when a component is
    covered only partially, or, when ``exact``, when a linkage vector is not realized."""
    name, labels = sys_.pc.diagram.name, set(labels)
    outside = sorted(labels.difference(sys_.nodes))
    if outside:
        raise orbit.VerificationError(
            f"{whose} of {name} in {amb} leave the enumerated set: {_vec(outside[0])}")
    count = 0
    for comp in sys_.components:
        missing = [sys_.nodes[i] for i in comp if sys_.nodes[i] not in labels]
        if missing and len(missing) < len(comp):
            raise orbit.VerificationError(f"{whose} cover a component of {name} only partially: "
                                          f"{_vec(missing[0])} is missing")
        count += not missing
    if exact and count < len(sys_.components):
        raise orbit.VerificationError(
            f"{whose} over E8 differ from the enumerated set for {name}: "
            f"{_vec(next(v for v in sys_.nodes if v not in labels))} is not realized")
    return count


def cmd_weights(args) -> int:
    pc = build_partial_cartan(load_diagram(args.src))
    orbit_vecs = rt.weight_orbit(pc, args.vertex)
    print(f"weight orbit of unit vector at {args.vertex} in {pc.diagram.name}: "
          f"{len(orbit_vecs)} vectors")
    for v in orbit_vecs:
        print(f"  {_vec(v)}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> _Parser:
    p = _Parser(prog="carterlink",
                description="Exact linkage systems for simply-laced Carter diagrams")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list cataloged diagram names").set_defaults(fn=cmd_catalog)

    c = sub.add_parser("cartan", help="print the partial Cartan matrix")
    c.add_argument("src")
    c.add_argument("--inverse", action="store_true")
    c.add_argument("--det", action="store_true")
    c.set_defaults(fn=cmd_cartan)

    c = sub.add_parser("linkages", help="enumerate linkage label vectors")
    c.add_argument("src")
    view = c.add_mutually_exclusive_group()
    view.add_argument("--group-by-p", action="store_true")
    view.add_argument("--beta-unicolored", action="store_true")
    c.set_defaults(fn=cmd_linkages)

    c = sub.add_parser("system", help="build the linkage system")
    c.add_argument("src")
    c.add_argument("--format", choices=["dot", "json"], default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_system)

    c = sub.add_parser("loctets", help="gamma(8) candidates and loctets per type")
    c.add_argument("src")
    c.set_defaults(fn=cmd_loctets)

    c = sub.add_parser("extendable", help="per-vertex simple-extendability verdicts")
    c.add_argument("src")
    c.set_defaults(fn=cmd_extendable)

    c = sub.add_parser("project", help="project an extended linkage system onto its base")
    c.add_argument("ext")
    c.add_argument("base")
    c.add_argument("--vertex", required=True)
    c.set_defaults(fn=cmd_project)

    c = sub.add_parser("verify", help="run the root-system oracle suite")
    c.add_argument("src")
    c.add_argument("--ambient", default="E8")
    c.add_argument("--trials", type=_positive_int, default=1)
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("weights", help="fundamental-weight orbit of a Dynkin diagram")
    c.add_argument("src")
    c.add_argument("--vertex", required=True)
    c.set_defaults(fn=cmd_weights)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except orbit.VerificationError as e:
        sys.stderr.write(f"verification failure: {e}\n")
        return EXIT_VERIFY
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
