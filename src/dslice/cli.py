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
"""

from __future__ import annotations

import argparse
import json
import sys

from .bs12 import FiniteMetabelian
from .cache import ENV_CACHE_DIR, cache_key, load_entry, store_entry
from .certify import (
    CERTIFIED,
    Certificate,
    certify_doubly_slice,
    certify_family,
    certify_satellite,
)
from .corpus import default_registry
from .diagrams import diagram_hash, zero_surgery
from .documents import (
    check_pattern_mark,
    diagram_from_document,
    document_kind,
    load_document,
    marked_presentation,
    validate_satellite_document,
)
from .errors import DsliceError, MalformedInput
from .groups import metabelian_quotient_homs
from .twisted import _check_regular_budget, crowell_check, crowell_compares

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


def _render_certificate(cert: Certificate, fmt: str) -> str:
    if fmt == "json":
        return cert.to_json() + "\n"
    lines = [f"certificate: {cert.version}", _subject_line(cert.subject)]
    lines.append(f"conclusion: {cert.conclusion}")
    for tag in sorted(cert.verdicts):
        lines.append(_render_verdict(tag, cert.verdicts[tag]))
    lines.append("hypotheses:")
    for h in cert.hypotheses:
        lines.append(f"  - {h}")
    if cert.citations:
        lines.append("citations: " + "; ".join(cert.citations))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand bodies (document in, report text + exit code out)


def _analyze_report(doc: dict, quotient) -> dict:
    if document_kind(doc) != "diagram":
        raise MalformedInput("analyze expects a knot or link document")
    # the cross-check below would refuse this target after the enumeration
    _check_regular_budget(FiniteMetabelian(*quotient))
    diagram, name = diagram_from_document(doc)
    check_pattern_mark(doc)
    plain = zero_surgery(diagram, 0)
    report = plain.splitting
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
    target, homs = metabelian_quotient_homs(plain, n, m)
    out["metabelian_quotient"] = {
        "n": n,
        "m": m,
        "maps": len(homs),
        "crowell_agree": (
            crowell_check(plain.group, homs[0], target) if homs else None
        ),
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


def _family_from_document(doc: dict):
    validate_satellite_document(doc)
    diagram, plain, pname = marked_presentation(doc["pattern"])
    registry = default_registry()
    base = certify_doubly_slice(
        diagram, name=pname, registry=registry, plain=plain
    )
    infections = []
    for item in doc["infections"]:
        curve = item["curve"]
        if curve not in plain.curve_words:
            raise MalformedInput(f"pattern has no marked curve {curve!r}")
        companion = item.get("companion")
        if isinstance(companion, str):
            kind = "doubled" if companion in ("doubled", "wh-symbolic") else "any"
            infections.append({
                "curve": curve, "companion": None,
                "name": item.get("name", ""), "kind": kind,
            })
        else:
            cd, cname = diagram_from_document(companion)
            infections.append({
                "curve": curve, "companion": cd,
                "name": item.get("name", "") or cname, "kind": "concrete",
            })
    return certify_family(
        plain, base.subject["hash"], base, infections,
        registry=registry, pattern_name=pname,
    )


def cmd_certify(doc: dict, quotient, fmt: str):
    if document_kind(doc) == "diagram":
        diagram, name = diagram_from_document(doc)
        cert = certify_doubly_slice(
            diagram, name=name, registry=default_registry(),
            quotient=tuple(quotient),
        )
    else:
        cert = _family_from_document(doc)
    code = 0 if cert.conclusion == CERTIFIED else 1
    return _render_certificate(cert, fmt), code


def cmd_satellite(pattern_doc: dict, infection: str, companion_doc, fmt: str):
    diagram, plain, pname = marked_presentation(pattern_doc)
    if infection not in plain.curve_words:
        raise MalformedInput(f"pattern has no marked curve {infection!r}")
    base = certify_doubly_slice(
        diagram, name=pname, registry=default_registry(), plain=plain
    )
    if companion_doc == "any":
        companion, cname, kind = None, "", "any"
    elif companion_doc in ("wh-symbolic", "doubled"):
        companion, cname, kind = None, "", "doubled"
    else:
        companion, cname = diagram_from_document(companion_doc)
        kind = "concrete"
    cert = certify_satellite(
        base, plain, infection, companion,
        companion_name=cname, companion_kind=kind,
    )
    code = 0 if cert.conclusion == CERTIFIED else 1
    return _render_certificate(cert, fmt), code


def cmd_oracle(doc: dict, n: int, m: int, fmt: str):
    if document_kind(doc) != "diagram":
        raise MalformedInput("oracle expects a knot document")
    diagram, name = diagram_from_document(doc)
    plain = zero_surgery(diagram, 0)
    # the zero map always exists and its check would refuse this target
    _check_regular_budget(FiniteMetabelian(n, m))
    target, homs = metabelian_quotient_homs(plain, n, m)
    maps = []
    for (free, torsion), (tfree, ttors), agree in crowell_compares(
        plain.group, homs, target
    ):
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
    use_cache = not args.no_cache
    if not use_cache:
        text, code = compute()
        sys.stdout.write(text)
        return code
    key = cache_key(operation, payload)
    entry = load_entry(key)
    if entry is not None and not args.verify_cache:
        sys.stdout.write(entry["result"])
        return int(entry.get("exit", 0))
    text, code = compute()
    if entry is not None and entry["result"] != text:
        sys.stderr.write(
            "dslice: cache entry does not byte-match recomputation;"
            " replacing it\n"
        )
        store_entry(key, operation, text, code)
        sys.stdout.write(text)
        return 1
    store_entry(key, operation, text, code)
    sys.stdout.write(text)
    return code


def _quotient(args):
    target = FiniteMetabelian(*args.quotient_bound)
    return target.n, target.m


def _add_common(p):
    p.add_argument(
        "--format", choices=("json", "text"), default="text",
        help="output format (default text)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the result cache",
    )
    p.add_argument(
        "--verify-cache", action="store_true",
        help="recompute on cache hits and check byte equality",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dslice",
        description="Double-slice certification for knots from PD codes.",
        epilog=f"Cache directory override: ${ENV_CACHE_DIR}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", help="module order, splitting verdict, quotient data"
    )
    p.add_argument("paths", nargs="+", metavar="DOC")
    p.add_argument("--quotient-bound", nargs=2, type=int, default=(2, 3),
                   metavar=("N", "M"))
    _add_common(p)

    p = sub.add_parser("certify", help="full double-slice certificate")
    p.add_argument("paths", nargs="+", metavar="DOC")
    p.add_argument("--quotient-bound", nargs=2, type=int, default=(2, 3),
                   metavar=("N", "M"))
    _add_common(p)

    p = sub.add_parser(
        "satellite", help="transport a certificate through one infection"
    )
    p.add_argument("--pattern", required=True, metavar="DOC")
    p.add_argument("--infection", required=True, metavar="CURVE")
    p.add_argument(
        "--companion", default="any", metavar="DOC|any|wh-symbolic",
        help="companion document, or a symbolic class of companions",
    )
    _add_common(p)

    p = sub.add_parser(
        "oracle", help="compare both finite-cover homology paths"
    )
    p.add_argument("--knot", required=True, metavar="DOC")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            quotient = _quotient(args)
            worst = 0
            for path in args.paths:
                doc = load_document(path)
                payload = {"doc": doc, "quotient": quotient,
                           "format": args.format}
                code = _run_cached(
                    args, "analyze", payload,
                    lambda doc=doc: cmd_analyze(doc, quotient, args.format),
                )
                worst = max(worst, code)
            return worst
        if args.command == "certify":
            quotient = _quotient(args)
            worst = 0
            for path in args.paths:
                doc = load_document(path)
                payload = {"doc": doc, "quotient": quotient,
                           "format": args.format}
                code = _run_cached(
                    args, "certify", payload,
                    lambda doc=doc: cmd_certify(doc, quotient, args.format),
                )
                worst = max(worst, code)
            return worst
        if args.command == "satellite":
            pattern_doc = load_document(args.pattern)
            if args.companion in ("any", "wh-symbolic", "doubled"):
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
        if args.command == "oracle":
            FiniteMetabelian(args.n, args.m)  # refuses bad parameters
            doc = load_document(args.knot)
            payload = {"doc": doc, "n": args.n, "m": args.m,
                       "format": args.format}
            return _run_cached(
                args, "oracle", payload,
                lambda: cmd_oracle(doc, args.n, args.m, args.format),
            )
        raise MalformedInput(f"unknown command {args.command!r}")
    except DsliceError as exc:
        sys.stderr.write(f"dslice: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
