"""Requests, generated inputs and output checks for each workload.

Workloads (one closed-loop client each; see README.md for why each
exists):

* ``oracle``: the dual-path cover oracle at two quotient shapes.
* ``corpus``: every bundled document through certify, analyze,
  satellite and replay.
* ``unregistered``: certify on 9_46 diagrams whose hash the curated
  registry does not know (the mirror and seeded Reidemeister-I kinks),
  so stage B runs.
* ``cache-hit``: the corpus CLI requests served from a filled cache.

Byte-stable requests are checked against the exit code and stdout
digest in ``expected.json`` (rewrite it with ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("oracle", "corpus", "unregistered", "cache-hit")

CERTIFIED = "DoublySliceCertified"
UNDECIDED = "Undetermined"

# Stage-B inputs: the mirror plus one kink from each block of three
# consecutive edges of 9_46, so every run spreads its kinks over the
# whole diagram and per-seed cost differences average out.
KINK_BLOCK = 3

_MAP_LINE = re.compile(r"^map \d+: .* agree (True|False)$", re.M)
_CROSS_CHECK = re.compile(r"cover (?:homology )?cross-check(?: at \(\d+,\d+\))?:? (?:True|False)")


@dataclass(frozen=True)
class Request:
    """One client request: a CLI argv, or a replay of a stored certificate."""

    id: str
    argv: tuple = ()
    replay: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay_output(ok: bool) -> str:
    """What a replay request reports, so it is checked like CLI output."""
    return f"replay: {ok}\n"


def maps_reported(stdout: str) -> int:
    """Metabelian maps whose cover cross-check an output reports."""
    return len(_MAP_LINE.findall(stdout)) + len(_CROSS_CHECK.findall(stdout))


def cli_requests(data: Path) -> list:
    """The corpus CLI requests as (id, argv) without cache flags."""
    def doc(name):
        return str(data / f"{name}.json")

    out = []
    for name in ("unknot", "trefoil", "figure8", "946", "r-rr"):
        out.append((f"certify {name}", ("certify", doc(name))))
    for name in ("946", "r-rr"):
        out.append((f"certify {name} json",
                    ("certify", doc(name), "--format", "json")))
    for name in ("unknot", "trefoil", "figure8", "946"):
        out.append((f"analyze {name}", ("analyze", doc(name))))
    for curve, companion in (("eta1", "any"), ("eta2", "any"),
                             ("gamma1", "wh-symbolic"), ("gamma1", "946")):
        comp = doc(companion) if companion == "946" else companion
        out.append((f"satellite {curve} {companion}",
                    ("satellite", "--pattern", doc("946"), "--infection",
                     curve, "--companion", comp)))
    return out


def oracle_requests(data: Path) -> list:
    return [
        ("oracle 946 3 7",
         ("oracle", "--knot", str(data / "946.json"), "--n", "3", "--m", "7")),
        ("oracle trefoil 4 15",
         ("oracle", "--knot", str(data / "trefoil.json"), "--n", "4", "--m", "15")),
    ]


def round_requests(workload: str, data: Path, generated=()) -> list:
    """The requests of one round, before seeded shuffling."""
    if workload == "oracle":
        return [Request(i, a + ("--no-cache",)) for i, a in oracle_requests(data)]
    if workload == "corpus":
        out = [Request(i, a + ("--no-cache",)) for i, a in cli_requests(data)]
        return out + [Request(f"replay {n}", replay=f"certify {n} json")
                      for n in ("946", "r-rr")]
    if workload == "cache-hit":
        return [Request(i, a) for i, a in cli_requests(data)]
    if workload == "unregistered":
        return [
            Request(f"certify {name}",
                    ("certify", str(path), "--format", "json", "--no-cache"))
            for name, path in generated
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- generated 9_46 diagrams ------------------------------------------------


def mirror_pd(pd) -> list:
    """Reflect the diagram plane: same under-strands, reversed rotation."""
    return [[a, d, c, b] for a, b, c, d in pd]


def kink_pd(pd, signs, edge: int, positive: bool) -> list:
    """Add a Reidemeister-I kink on ``edge`` of a one-component PD code.

    The edge is cut into ``edge`` (its start), a loop ``edge + 1`` and
    ``edge + 2`` (its end); later labels shift by two.  ``signs`` are
    the crossing signs, which say where each over-strand edge ends.
    """
    out = []
    for (a, b, c, d), sign in zip(pd, signs):
        incoming = {0, 3 if sign == 1 else 1}
        row = []
        for pos, x in enumerate((a, b, c, d)):
            if x > edge:
                x += 2
            elif x == edge and pos in incoming:
                x = edge + 2
            row.append(x)
        out.append(row)
    e = edge
    out.append([e, e + 2, e + 1, e + 1] if positive else [e, e + 1, e + 1, e + 2])
    return out


def choose_kinks(seed: int, edges: int) -> list:
    """Seeded (edge, positive) pairs: one kink per block of edges."""
    rng = random.Random(f"{seed}:kinks")
    out = []
    for lo in range(1, edges + 1, KINK_BLOCK):
        hi = min(lo + KINK_BLOCK - 1, edges)
        out.append((rng.randint(lo, hi), rng.random() < 0.5))
    return out


def unregistered_documents(seed: int, base: dict, diagram_from_document,
                           diagram_hash, registered) -> list:
    """Mirror and seeded kinks of ``base`` as (name, document) pairs.

    Each document is validated by ``diagram_from_document``; a document
    whose hash is in ``registered`` raises, since stage B would not run.
    """
    diagram, _ = diagram_from_document({"pd": base["pd"]})
    pds = [("mirror", mirror_pd(base["pd"]))]
    for edge, positive in choose_kinks(seed, len(diagram.edges)):
        pds.append((f"kink{edge:02d}{'+' if positive else '-'}",
                    kink_pd(base["pd"], diagram.signs, edge, positive)))
    out = []
    for tag, pd in pds:
        doc = {"format": "dslice-diagram/1",
               "name": f"{base.get('name', '')} {tag}".strip(), "pd": pd}
        h = diagram_hash(diagram_from_document(doc)[0])
        if h in registered:
            raise RuntimeError(f"generated diagram {tag} is registered ({h})")
        out.append((tag, doc))
    return out


# -- output checks ----------------------------------------------------------


def check_stable(expected: dict, req_id: str, code: int, stdout: str) -> bool:
    want = expected["requests"][req_id]
    return code == want["exit"] and digest(stdout) == want["sha256"]


def check_unregistered(expected: dict, code: int, stdout: str, replay) -> bool:
    """Certified or undetermined, same module lines, every holds replays."""
    try:
        cert = json.loads(stdout)
        conclusion = cert["conclusion"]
        hypotheses = cert["hypotheses"]
        statuses = [v["status"] for v in cert["verdicts"].values()]
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        return False
    if conclusion not in (CERTIFIED, UNDECIDED):
        return False
    if code != (0 if conclusion == CERTIFIED else 1):
        return False
    if any(line not in hypotheses for line in expected["module_lines"]):
        return False
    if "holds" in statuses and not replay(cert):
        return False
    return True
