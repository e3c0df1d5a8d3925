"""Command line interface: analyze, certify, satellite, oracle.

Every subcommand reads JSON documents, writes a deterministic report
(JSON or text) to stdout, and encodes its outcome in the exit status:

* 0: success; for ``certify`` and ``satellite``, the conclusion is
  DoublySliceCertified; for ``oracle``, both computation paths agree.
* 1: a valid run with any other outcome.
* 2: malformed input or incompatible parameters.

Reports carry no timestamps, so identical inputs and flags produce
byte-identical output.  Results are cached under a content-hash key
(see the cache module); ``--no-cache`` bypasses the cache and
``--verify-cache`` recomputes on every hit and insists the stored bytes
match.

A request whose first token names a subcommand is parsed by that
subcommand's parser alone, made as ``add_parser`` makes it, so its
``-h`` and its errors are the full tree's: building every subparser was
most of a cached request's time.  Anything else (no arguments, a
top-level option, an unknown command, or tokens the subparser leaves
over) goes to the full tree, which owns top-level help and usage.
No parser is kept between calls.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bs12 import FiniteMetabelian
from .cache import ENV_CACHE_DIR, cache_key, load_entry, store_entry
from .certify import CERTIFIED, Certificate, certify_request, satellite_request
from .corpus import default_registry
from .diagrams import diagram_hash, zero_surgery
from .documents import (
    COMPANION_TOKENS,
    diagram_from_document,
    document_kind,
    load_document,
)
from .errors import DsliceError, MalformedInput
from .modules import alexander_module, detect_splitting
from .twisted import cover_compares, first_cover_check

__all__ = ["main"]

_VERDICT_NAMES = {
    "split": "Split",
    "no_split": "NotApplicable",
    "undetermined": "Undetermined",
}


# ---------------------------------------------------------------------------
# rendering


def _render_verdict(tag: str, v: dict) -> str:
    ev = v.get("evidence", {})
    kind = ev.get("kind")
    if kind == "ClosedFormFamily":
        detail = f"[{ev['rule']}]"
    elif kind == "TransportChain":
        detail = f"[transport chain, {len(ev.get('records', []))} record(s)]"
    else:
        detail = f"({v.get('reason', 'not evaluated')})"
    return f"verdict {tag}: {v['status']}  {detail}"


def _subject_line(subject: dict) -> str:
    kind = subject.get("kind", "knot")
    if kind == "knot":
        name = subject.get("name") or "unnamed"
        return f"subject: knot {name} [{subject['hash']}]"
    if kind == "satellite":
        comp = subject.get("companion")
        if isinstance(comp, dict):
            comp = comp.get("name") or comp.get("hash")
        return (
            f"subject: satellite of [{subject['pattern']}] along"
            f" {subject['curve']}, companion {comp}"
        )
    pat = subject.get("pattern", {})
    lines = [
        f"subject: family over {pat.get('name') or 'pattern'}"
        f" [{pat.get('hash')}]"
    ]
    for inf in subject.get("infections", ()):
        comp = inf.get("name") or inf.get("hash") or inf.get("kind")
        lines.append(f"  infection {inf['curve']}: {comp}")
    return "\n".join(lines)


def _render_certificate(cert: Certificate, fmt: str):
    """The report text and the exit code of a certificate."""
    code = 0 if cert.conclusion == CERTIFIED else 1
    if fmt == "json":
        return cert.to_json() + "\n", code
    lines = [f"certificate: {cert.version}", _subject_line(cert.subject)]
    lines.append(f"conclusion: {cert.conclusion}")
    for tag in sorted(cert.verdicts):
        lines.append(_render_verdict(tag, cert.verdicts[tag]))
    lines.append("hypotheses:")
    for h in cert.hypotheses:
        lines.append(f"  - {h}")
    if cert.citations:
        lines.append("citations: " + "; ".join(cert.citations))
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# subcommand bodies (document in, report text + exit code out)


def _analyze_report(doc: dict, quotient) -> dict:
    if document_kind(doc) != "diagram":
        raise MalformedInput("analyze expects a knot or link document")
    diagram, name = diagram_from_document(doc)
    plain = zero_surgery(diagram, 0)
    # the witness lines are coordinates over the diagram's arcs, so the
    # report reads the full presentation's module, not ``plain.module``
    report = detect_splitting(alexander_module(plain.group, plain.meridian))
    out = {
        "name": name or None,
        "hash": diagram_hash(diagram),
        # the order is the gcd of the maximal minors of the simplified
        # Alexander module, which is the Alexander polynomial
        "alexander_polynomial": str(report.order),
        "module_order": str(report.order),
        "splitting": {
            "verdict": _VERDICT_NAMES[report.verdict],
            "note": report.note or None,
            "witnesses": (
                None
                if report.v1 is None
                else [
                    [str(c) for c in report.v1],
                    [str(c) for c in report.v2],
                ]
            ),
        },
    }
    n, m = quotient
    maps, agree = first_cover_check(plain, n, m)
    out["metabelian_quotient"] = {
        "n": n,
        "m": m,
        "maps": maps,
        "crowell_agree": agree,
    }
    return out


def cmd_analyze(doc: dict, quotient, fmt: str):
    report = _analyze_report(doc, quotient)
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n", 0
    s = report["splitting"]
    q = report["metabelian_quotient"]
    lines = [
        f"knot: {report['name'] or 'unnamed'} [{report['hash']}]",
        f"alexander polynomial: {report['alexander_polynomial']}",
        f"module order: {report['module_order']}",
        f"splitting: {s['verdict']}" + (f" ({s['note']})" if s["note"] else ""),
    ]
    if s["witnesses"]:
        lines.append(f"  witness 1: ({', '.join(s['witnesses'][0])})")
        lines.append(f"  witness 2: ({', '.join(s['witnesses'][1])})")
    lines.append(
        f"metabelian quotient ({q['n']},{q['m']}): {q['maps']} map(s),"
        f" cover cross-check {q['crowell_agree']}"
    )
    return "\n".join(lines) + "\n", 0


def cmd_certify(doc: dict, quotient, fmt: str):
    cert = certify_request(doc, default_registry(), quotient)
    return _render_certificate(cert, fmt)


def cmd_satellite(pattern_doc: dict, infection: str, companion_doc, fmt: str):
    cert = satellite_request(pattern_doc, infection, companion_doc, default_registry())
    return _render_certificate(cert, fmt)


def cmd_oracle(doc: dict, n: int, m: int, fmt: str):
    if document_kind(doc) != "diagram":
        raise MalformedInput("oracle expects a knot document")
    diagram, name = diagram_from_document(doc)
    plain = zero_surgery(diagram, 0)
    maps = []
    for (free, torsion), (tfree, ttors), agree in cover_compares(plain, n, m):
        maps.append({
            "cover": {"free": free, "torsion": list(torsion)},
            "twisted": {"free": tfree, "torsion": list(ttors)},
            "agree": agree,
        })
    all_agree = bool(maps) and all(item["agree"] for item in maps)
    report = {
        "name": name or None,
        "hash": diagram_hash(diagram),
        "quotient": [n, m],
        "maps": maps,
        "all_agree": all_agree,
    }
    code = 0 if all_agree else 1
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n", code
    lines = [
        f"knot: {report['name'] or 'unnamed'} [{report['hash']}]",
        f"quotient: metabelian ({n},{m}), {len(maps)} map(s)",
    ]
    for i, item in enumerate(maps):
        c, t = item["cover"], item["twisted"]
        lines.append(
            f"map {i}: cover Z^{c['free']} + {c['torsion']},"
            f" twisted Z^{t['free']} + {t['torsion']},"
            f" agree {item['agree']}"
        )
    lines.append(f"all agree: {all_agree}")
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# caching wrapper and argument plumbing


def _run_cached(args, operation: str, payload, compute):
    """Serve from the cache, or compute, verify, and store."""
    if args.no_cache:
        text, code = compute()
        sys.stdout.write(text)
        return code
    key = cache_key(operation, payload)
    entry = load_entry(key)
    if entry is not None and not args.verify_cache:
        sys.stdout.write(entry["result"])
        return entry["exit"]
    text, code = compute()
    stale = entry is not None and (entry["result"], entry["exit"]) != (text, code)
    if stale:
        sys.stderr.write(
            "dslice: cache entry's output bytes or exit code differ from"
            " recomputation; replacing it\n"
        )
    store_entry(key, operation, text, code)
    sys.stdout.write(text)
    return 1 if stale else code


def _add_common(p):
    p.add_argument("--format", choices=("json", "text"), default="text",
                   help="output format (default text)")
    p.add_argument("--no-cache", action="store_true",
                   help="do not read or write the result cache")
    p.add_argument("--verify-cache", action="store_true",
                   help="recompute on cache hits and compare output bytes and exit code")


def _add_documents(p):
    p.add_argument("paths", nargs="+", metavar="DOC")
    p.add_argument("--quotient-bound", nargs=2, type=int, default=(2, 3),
                   metavar=("N", "M"))


def _add_satellite(p):
    p.add_argument("--pattern", required=True, metavar="DOC")
    p.add_argument("--infection", required=True, metavar="CURVE")
    p.add_argument("--companion", default="any", metavar="DOC|any|wh-symbolic",
                   help="companion document, or a symbolic class of companions")


def _add_oracle(p):
    p.add_argument("--knot", required=True, metavar="DOC")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)


# Each subcommand: its help line and the function that adds its arguments.
_COMMANDS = {
    "analyze": ("module order, splitting verdict, quotient data",
                _add_documents),
    "certify": ("full double-slice certificate", _add_documents),
    "satellite": ("transport a certificate through one infection",
                  _add_satellite),
    "oracle": ("compare both finite-cover homology paths", _add_oracle),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dslice",
        description="Double-slice certification for knots from PD codes.",
        epilog=f"Cache directory override: ${ENV_CACHE_DIR}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        add_arguments(p)
        _add_common(p)
    return parser


def _parse_args(argv):
    """``argv`` parsed by its subcommand's own parser when that leaves
    nothing over, otherwise by the full tree."""
    if argv and argv[0] in _COMMANDS:
        # the parser ``add_parser`` makes for this command
        p = argparse.ArgumentParser(prog=f"dslice {argv[0]}")
        _COMMANDS[argv[0]][1](p)
        _add_common(p)
        args, extras = p.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.command in ("analyze", "certify"):
            run = {"analyze": cmd_analyze, "certify": cmd_certify}[args.command]
            target = FiniteMetabelian(*args.quotient_bound)
            quotient = target.n, target.m
            worst = 0
            for path in args.paths:
                doc = load_document(path)
                payload = {"doc": doc, "quotient": quotient,
                           "format": args.format}
                code = _run_cached(
                    args, args.command, payload,
                    lambda doc=doc: run(doc, quotient, args.format),
                )
                worst = max(worst, code)
            return worst
        if args.command == "satellite":
            pattern_doc = load_document(args.pattern)
            if args.companion in COMPANION_TOKENS:
                companion_doc = args.companion
            else:
                companion_doc = load_document(args.companion)
            payload = {
                "pattern": pattern_doc, "infection": args.infection,
                "companion": companion_doc, "format": args.format,
            }
            return _run_cached(
                args, "satellite", payload,
                lambda: cmd_satellite(
                    pattern_doc, args.infection, companion_doc, args.format
                ),
            )
        FiniteMetabelian(args.n, args.m)  # oracle; refuses bad parameters
        doc = load_document(args.knot)
        payload = {"doc": doc, "n": args.n, "m": args.m, "format": args.format}
        return _run_cached(
            args, "oracle", payload,
            lambda: cmd_oracle(doc, args.n, args.m, args.format),
        )
    except DsliceError as exc:
        sys.stderr.write(f"dslice: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
