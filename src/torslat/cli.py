"""Command line front end.

Subcommands: ``indec`` enumerates indecomposables and can export the catalog
as JSON, ``lattice`` builds the labeled lattice with DOT/JSON export,
``interval`` inspects one interval (wideness report, reduction), ``verify``
runs the full identity suite over a spec file or the bundled corpus.

Exit codes: 0 success, 1 failed verification, 2 resource or closure error,
3 usage error, 4 precondition error.
"""

import argparse
import os
import sys

from . import verify as verify_mod, widelab
from .catalog import build_catalog, to_json
from .config import DEFAULT_CONFIG
from .errors import (
    NotAnInterval,
    PreconditionError,
    ResourceError,
    UsageError,
    VerificationError,
)
from .lattice import build_lattice
from .quivalg import parse_algebra_file


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _budget_parent():
    p = _Parser(add_help=False)
    p.add_argument("--dim-bound", type=int, default=None)
    p.add_argument("--path-budget", type=int, default=None)
    p.add_argument("--iso-budget", type=int, default=None)
    p.add_argument("--subspace-budget", type=int, default=None)
    p.add_argument("--ext-budget", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    return p


def _config_from(args):
    try:
        return DEFAULT_CONFIG.with_overrides(
            dim_bound=args.dim_bound,
            path_budget=args.path_budget,
            iso_budget=args.iso_budget,
            subspace_budget=args.subspace_budget,
            ext_budget=args.ext_budget,
            node_budget=args.node_budget,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_parser():
    parent = _budget_parent()
    parser = _Parser(prog="torslat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indec", parents=[parent])
    p.add_argument("spec")
    p.add_argument("--json", default=None, metavar="PATH")

    p = sub.add_parser("lattice", parents=[parent])
    p.add_argument("spec")
    p.add_argument("--dot", default=None, metavar="PATH")
    p.add_argument("--json", default=None, metavar="PATH")

    p = sub.add_parser("interval", parents=[parent])
    p.add_argument("spec")
    p.add_argument("bottom")
    p.add_argument("top")
    p.add_argument("--check-wide", action="store_true")
    p.add_argument("--reduce", action="store_true")

    p = sub.add_parser("verify", parents=[parent])
    p.add_argument("spec", nargs="?", default=None)
    p.add_argument("--corpus", action="store_true")
    p.add_argument("--props", default=None, metavar="LIST")
    return parser


def _parse_node(cat, lat, token):
    tok = token.strip()
    if tok in ("0", "∅", "{}"):
        members = frozenset()
    else:
        if tok.startswith("{") and tok.endswith("}"):
            tok = tok[1:-1]
        index = {n: i for i, n in enumerate(cat.names)}
        members = set()
        for part in tok.split(","):
            nm = part.strip()
            if not nm:
                continue
            if nm not in index:
                raise NotAnInterval(f"unknown indecomposable name {nm!r}")
            members.add(index[nm])
        members = frozenset(members)
    node = lat.node_index.get(members)
    if node is None:
        raise NotAnInterval(f"{cat.mask_name(members)} is not a torsion class")
    return node


def _load_algebra(path, cfg):
    try:
        return parse_algebra_file(path, cfg)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read spec: {exc}") from None


def _export(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write export: {exc}") from None


def _yesno(flag):
    return "yes" if flag else "no"


def _cmd_indec(args, cfg, out):
    algebra = _load_algebra(args.spec, cfg)
    cat = build_catalog(algebra, cfg)
    print(f"{len(cat.ind)} indecomposables", file=out)
    for i, mod in enumerate(cat.ind):
        dims = ",".join(str(d) for d in mod.dims)
        print(f"{cat.names[i]} dims={dims} total={mod.total_dim}", file=out)
    if args.json:
        _export(args.json, to_json(cat))
    return 0


def _cmd_lattice(args, cfg, out):
    algebra = _load_algebra(args.spec, cfg)
    cat = build_catalog(algebra, cfg)
    lat = build_lattice(cat)
    print(f"{len(lat)} nodes, {len(lat.arrows)} arrows", file=out)
    if args.dot:
        _export(args.dot, lat.to_dot())
    if args.json:
        _export(args.json, lat.to_json())
    return 0


def _cmd_interval(args, cfg, out):
    algebra = _load_algebra(args.spec, cfg)
    cat = build_catalog(algebra, cfg)
    lat = build_lattice(cat)
    bottom = _parse_node(cat, lat, args.bottom)
    top = _parse_node(cat, lat, args.top)
    iv = lat.interval(bottom, top)
    print(
        f"interval [{lat.name(iv.bottom)},{lat.name(iv.top)}]:"
        f" {len(lat.interval_nodes(iv))} nodes",
        file=out,
    )
    if args.check_wide or args.reduce:
        report = widelab.is_wide_interval(lat, iv)
        print(f"wide: {_yesno(report.wide)}", file=out)
        print(f"gap: {cat.mask_name(report.wide_mask)}", file=out)
        print(
            f"verdicts: direct={_yesno(report.direct)}"
            f" join={_yesno(report.join)} meet={_yesno(report.meet)}",
            file=out,
        )
    if args.reduce:
        red = widelab.reduce_interval(lat, iv)
        wlat = red.wide_lattice
        print(
            f"reduced lattice: {len(wlat)} nodes, {len(wlat.arrows)} arrows",
            file=out,
        )
        for v in sorted(red.phi):
            print(f"phi {lat.name(v)} -> {wlat.name(red.phi[v])}", file=out)
    return 0


def _cmd_verify(args, cfg, out):
    if args.corpus == (args.spec is not None):
        raise UsageError("give a spec file or --corpus, not both or neither")
    props = None
    if args.props is not None:
        props = [p.strip() for p in args.props.split(",") if p.strip()]
    if args.corpus:
        named = [
            (name, verify_mod.load_corpus_algebra(name, cfg))
            for name in verify_mod.CORPUS
        ]
    else:
        base = os.path.basename(args.spec)
        name = base[:-4] if base.endswith(".alg") else base
        named = [(name, _load_algebra(args.spec, cfg))]
    results = verify_mod.run_verify(named, props, cfg)
    text, failures = verify_mod.format_report(results)
    out.write(text)
    return 1 if failures else 0


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from(args)
        handler = {
            "indec": _cmd_indec,
            "lattice": _cmd_lattice,
            "interval": _cmd_interval,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args, cfg, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
