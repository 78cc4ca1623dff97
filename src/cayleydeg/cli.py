"""Command-line interface.

Exit codes: 0 success (and no findings), 1 a conjecture-violation finding,
2 usage or input error (for scan: also any instance that could not be
checked, such as one over the subset budget, when nothing was found),
3 internal invariant breach or any other unexpected error, whose traceback
goes to stderr.  The CAYLEYDEG_OUT_DIR environment variable, when set, is
the base directory for relative output paths.

Each input is checked once: argparse checks the command line, the token
parsers only parse, and the library checks what the tokens mean.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .errors import InvariantBreach, load_json
from .extremal import (
    DEFAULT_SUBSET_BUDGET,
    graph_scan_items,
    iter_abelian_moduli,
    named_group_scan_items,
    scan,
)
from .graphs import (
    build_cayley,
    builtin_graph,
    components,
    counterexample_checks,
    counterexample_graph,
    export_graph,
    import_graph,
    induced_max_degree,
)
from .groups import FiniteGroup, make_generating_set, make_group
from .signing import (
    SEARCH_SIZE_CAP,
    huang_signing,
    signing_from_json,
    signing_search,
    signing_to_json,
    spectrum,
    spectrum_to_csv,
    verify_signing,
)
from .witness import abelian_witness

__all__ = ["main", "entry"]


def _out_path(text: str) -> Path:
    """An output path; a relative one is read under $CAYLEYDEG_OUT_DIR."""
    return Path(os.environ.get("CAYLEYDEG_OUT_DIR", ".")) / text


def _order_range(text: str) -> tuple[int, int] | None:
    """`LO..HI`, or `HI` for 2..HI, as (lo, hi); an empty value selects nothing."""
    if not text:
        return None
    lo, dots, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if dots else (2, int(lo))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI or HI, got {text!r}") from None


def _split_tokens(text: str) -> list[str]:
    """Split a comma-separated token list, respecting parentheses."""
    out = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            cur.append(ch)
        elif ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    out.append("".join(cur).strip())
    return [t for t in out if t]


def _parse_element(G: FiniteGroup, token: str) -> int:
    """One element token: eK basis vector, decimal index, or (a,b,...) tuple."""
    t = token.strip()
    if t.startswith("(") and t.endswith(")"):
        if not G.moduli:
            raise ValueError("tuple element tokens need a cyclic-product group")
        parts = [p.strip() for p in t[1:-1].split(",") if p.strip()]
        if len(parts) != len(G.moduli):
            raise ValueError(
                f"tuple {t} has {len(parts)} coordinates, group has {len(G.moduli)}"
            )
        return G.encode([int(p) for p in parts])
    if t[:1] == "e" and t[1:].isdigit():
        if not G.moduli:
            raise ValueError("basis tokens e1..ek need a cyclic-product group")
        i = int(t[1:])
        if not 1 <= i <= len(G.moduli):
            raise ValueError(f"basis token {t} out of range for {len(G.moduli)} coordinates")
        return G.encode([1 if j == i - 1 else 0 for j in range(len(G.moduli))])
    try:
        return int(t)
    except ValueError:
        raise ValueError(f"cannot parse element token {token!r}") from None


def _parse_elements(G: FiniteGroup, text: str) -> list[int]:
    return [_parse_element(G, t) for t in _split_tokens(text)]


def _parse_subset(G: FiniteGroup, text: str) -> list[int]:
    if text.startswith("@"):
        data = load_json(Path(text[1:]).read_text(), "subset")
        if not isinstance(data, list):
            raise ValueError("subset file must hold a JSON list")
        out = []
        for entry in data:
            if type(entry) is int:
                out.append(entry)
            elif isinstance(entry, list) and all(type(x) is int for x in entry):
                out.append(G.encode(entry))
            else:
                raise ValueError(f"bad subset entry {entry!r}")
        return out
    return _parse_elements(G, text)


def _write_or_print(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {path}")


def cmd_build(args) -> int:
    G = make_group(args.group)
    S = make_generating_set(
        G, _parse_elements(G, args.gens), allow_nongenerating=args.allow_nongenerating
    )
    X = build_cayley(G, S)
    comps = components(X.graph)
    print(f"group {G.name} order {G.order}")
    print(f"generating set size {S.size} (d={S.d}, t={S.t})")
    print(f"cayley graph: {X.graph.n} vertices, {X.graph.edge_count} edges, "
          f"{S.size}-regular, {len(comps)} component(s)")
    if args.out is not None or args.print_graph:
        _write_or_print(args.out, export_graph(X.graph, args.format).decode())
    return 0


def cmd_witness(args) -> int:
    G = make_group(args.group)
    S = make_generating_set(G, _parse_elements(G, args.gens))
    subset = _parse_subset(G, args.subset)
    report = abelian_witness(G, S, subset)
    _write_or_print(args.out, report.to_json())
    return 0


def cmd_scan(args) -> int:
    if not (args.abelian_orders or args.groups or args.graph):
        raise ValueError("nothing to scan: pass --abelian-orders, --groups, or --graph")
    # every group is selected, built and checked against its caps before
    # any item is built
    specs: list = []
    if args.abelian_orders:
        lo, hi = args.abelian_orders
        specs += iter_abelian_moduli(hi, min_order=lo)
    if args.groups:
        specs += [g.strip() for g in args.groups.split(",") if g.strip()]
    items = named_group_scan_items(specs, max_size=args.max_set_size)
    items += graph_scan_items(args.graph or [])
    if not items:
        raise ValueError("nothing to scan: the selectors match no instance "
                         "(check the --abelian-orders range and --max-set-size)")

    summary, csv_text = scan(
        items,
        budget=args.budget,
        out_csv=args.out,
        violations_dir=args.violations_dir,
        jobs=args.jobs,
    )
    if args.out is None:
        sys.stdout.write(csv_text)
    print(
        f"scanned {summary.instances} instance(s); weak-bound failures: "
        f"{summary.weak_failures}; min margin: {summary.min_margin}",
        file=sys.stderr,
    )
    for err in summary.errors:
        print(f"instance error: {err}", file=sys.stderr)
    if summary.weak_failures:
        return 1
    return 2 if summary.errors else 0


def cmd_counterexample(args) -> int:
    inst = counterexample_graph(args.n)
    checks = counterexample_checks(inst)
    X = inst.graph
    print(f"n={args.n}: {X.n} vertices, {X.edge_count} edges")
    required = ["regular", "bipartite", "subset_size", "induced_max_degree"]
    for name in required:
        print(f"  {name}: {'ok' if checks[name] else 'FAIL'}")
    deg, _ = induced_max_degree(X, inst.subset)
    print(f"subset size {inst.subset.size} induces max degree {deg}")
    # degree 1 beats the sqrt bound only once the regularity is above 2
    print(f"  bound violated: {'yes' if checks['bound_violated'] else 'no'}")
    if args.out is not None:
        _write_or_print(args.out, inst.to_json())
    return 0 if all(checks[k] for k in required) else 3


def cmd_huang(args) -> int:
    M = huang_signing(args.n)
    if args.verify:
        ok = verify_signing(M, args.n)
        print(f"M^2 = {args.n}I: {'OK' if ok else 'FAIL'}")
        if not ok:
            raise InvariantBreach("recursive signing failed verification")
    if args.out is not None:
        _write_or_print(args.out, signing_to_json(M))
    else:
        print(f"signing of q{args.n}: {M.size} vertices, "
              f"{len(M.edges_with_signs())} signed edges")
    return 0


def cmd_verify(args) -> int:
    M = signing_from_json(Path(args.infile).read_text())
    ok = verify_signing(M, args.c)
    print(f"M^2 = {args.c}I: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_spectrum(args) -> int:
    M = signing_from_json(Path(args.infile).read_text())
    spec = spectrum(M)
    _write_or_print(args.out, spectrum_to_csv(spec))
    print(f"min modulus: {spec.min_modulus:.12g}", file=sys.stderr)
    return 0


def cmd_search(args) -> int:
    if args.ci and args.seed is None and not args.exhaustive:
        raise ValueError("--ci requires an explicit --seed for randomized search")
    if args.infile is not None:
        X = import_graph(Path(args.infile).read_text(), "json", cap=SEARCH_SIZE_CAP)
    else:
        X = builtin_graph(args.graph)
    res = signing_search(
        X,
        seed=args.seed or 0,
        budget=args.budget,
        restarts=args.restarts,
        exhaustive=args.exhaustive,
        jobs=args.jobs,
    )
    print(
        f"{res.method} search over {X.edge_count} edges: "
        f"min modulus {res.min_modulus:.12g} ({res.evaluations} evaluations)"
    )
    if args.out is not None:
        _write_or_print(args.out, signing_to_json(res.signing))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cayleydeg",
        description="Cayley graphs, induced-degree bounds, witnesses, and signings.",
    )
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--ci", action="store_true",
                   help="require an explicit --seed for randomized commands")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a Cayley graph")
    b.add_argument("--group", required=True, help="group spec, e.g. z4x2, dihedral:5, q8")
    b.add_argument("--gens", required=True, help="generator tokens, e.g. e1,e2 or 1,5 or (1,0),(0,1)")
    b.add_argument("--allow-nongenerating", action="store_true")
    b.add_argument("--format", choices=["json", "dot"], default="json")
    b.add_argument("--out", type=_out_path, default=None)
    b.add_argument("--print-graph", action="store_true", help="print the serialized graph")
    b.set_defaults(func=cmd_build)

    w = sub.add_parser("witness", help="certify a high-degree vertex in a majority subset")
    w.add_argument("--group", required=True)
    w.add_argument("--gens", required=True)
    w.add_argument("--subset", required=True, help="element tokens, or @file with a JSON list")
    w.add_argument("--out", type=_out_path, default=None)
    w.set_defaults(func=cmd_witness)

    s = sub.add_parser("scan", help="scan families for bound violations")
    s.add_argument("--abelian-orders", type=_order_range, default=None, metavar="LO..HI",
                   help="all cyclic-product groups with order in range, e.g. 2..16")
    s.add_argument("--groups", default=None, help="comma list of named groups, e.g. d4,q8,s3")
    s.add_argument("--graph", action="append", default=None, help="catalog graph (repeatable)")
    s.add_argument("--max-set-size", type=int, default=None)
    s.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    s.add_argument("--out", type=_out_path, default=None, help="CSV path (default: stdout)")
    s.add_argument("--violations-dir", type=_out_path, default=None)
    s.set_defaults(func=cmd_scan)

    c = sub.add_parser("counterexample", help="build and check a counterexample instance")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out", type=_out_path, default=None)
    c.set_defaults(func=cmd_counterexample)

    g = sub.add_parser("signing", help="signed adjacency operations")
    gsub = g.add_subparsers(required=True)

    gh = gsub.add_parser("huang", help="recursive hypercube signing")
    gh.add_argument("--n", type=int, required=True)
    gh.add_argument("--verify", action="store_true")
    gh.add_argument("--out", type=_out_path, default=None)
    gh.set_defaults(func=cmd_huang)

    gv = gsub.add_parser("verify", help="exact check that M^2 = cI")
    gv.add_argument("--in", dest="infile", required=True)
    gv.add_argument("--c", type=int, required=True)
    gv.set_defaults(func=cmd_verify)

    gs = gsub.add_parser("spectrum", help="eigenvalues of a signing")
    gs.add_argument("--in", dest="infile", required=True)
    gs.add_argument("--out", type=_out_path, default=None)
    gs.set_defaults(func=cmd_spectrum)

    gr = gsub.add_parser("search", help="search signings for large smallest eigenvalue modulus")
    source = gr.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="catalog graph")
    source.add_argument("--in", dest="infile", help="graph JSON file")
    gr.add_argument("--exhaustive", action="store_true")
    gr.add_argument("--budget", type=int, default=2000)
    gr.add_argument("--restarts", type=int, default=8)
    gr.add_argument("--out", type=_out_path, default=None)
    gr.set_defaults(func=cmd_search)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.jobs = max(1, args.jobs)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # BudgetExceeded and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantBreach as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except Exception:  # a fault of the program, never a finding: exit 1 stays a finding
        traceback.print_exc()
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
