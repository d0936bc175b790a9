"""Golden-episode fixture: one sha256 per ``EpisodeResult.to_dict()``.

A perf change to the episode path (index operands, the simulated LLM's
similarity look-ups) claims that *no episode bit moves*.  Served-vs-
sequential equivalence tests cannot show that — both sides run the new
code — so this script pins the claim against an earlier commit: run it
on that commit's ``src`` to write the fixture, run it with ``--check``
on the working tree to compare.

The set is the repo benchmark's ``offline_compare`` grid in miniature —
40 queries x 4 suites x ``default``/``gorilla``/``lis-k3`` on one
private embedder, fixed seed, ``agent.run`` at batch 1 — plus one cell
with a weak deployment (400 geoengine queries, ``lis-k3``), because the
benchmark's model never takes the Level-3 fallback and that is the path
on which the presented tool set changes mid-episode.

Run:  python scripts/make_golden_episodes.py --check
      python scripts/make_golden_episodes.py --src <parent checkout>/src \
          --ref <parent sha> --fixture tests/data/golden_episodes_parent.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "data" / "golden_episodes_parent.json"

SUITES = ("bfcl", "geoengine", "edgehome", "browser")
SCHEMES = ("default", "gorilla", "lis-k3")
MODEL, QUANT = "hermes2-pro-8b", "q4_K_M"
SEED = 1507
#: (suite, n_queries, model, quant, schemes)
CELLS = [(suite, 40, MODEL, QUANT, SCHEMES) for suite in SUITES] + [
    ("geoengine", 400, "qwen2-1.5b", "q4_0", ("lis-k3",)),
]


def episode_digest(episode) -> str:
    """sha256 of the canonical JSON of ``episode.to_dict()``."""
    canonical = json.dumps(episode.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_episodes() -> dict[str, str]:
    """``"suite/scheme/model-quant/qid" -> digest`` for the golden set."""
    from repro import AgentSpec, open_session
    from repro.embedding.cache import CachedEmbedder

    embedder = CachedEmbedder()
    digests: dict[str, str] = {}
    for suite, n_queries, model, quant, schemes in CELLS:
        session = open_session(suite, n_queries=n_queries, seed=SEED,
                               embedder=embedder)
        for scheme in schemes:
            agent = session.build_agent(AgentSpec(scheme, model, quant))
            for query in session.suite.queries:
                key = f"{suite}/{scheme}/{model}-{quant}/{query.qid}"
                digests[key] = episode_digest(agent.run(query))
    return digests


def mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Keys whose digest differs, or that only one side has."""
    return sorted(key for key in expected.keys() | actual.keys()
                  if expected.get(key) != actual.get(key))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=REPO_ROOT / "src",
                        help="the `src` directory whose `repro` runs the "
                             "episodes (default: this checkout's)")
    parser.add_argument("--ref", default=None,
                        help="commit the --src tree was extracted from "
                             "(recorded in the fixture)")
    parser.add_argument("--fixture", type=Path, default=FIXTURE,
                        help="the digest file to write, or to check against")
    parser.add_argument("--check", action="store_true",
                        help="compare against the fixture instead of "
                             "writing it; exit 1 on any difference")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src))
    actual = run_episodes()
    if args.check:
        expected = json.loads(args.fixture.read_text())["episodes"]
        differing = mismatches(expected, actual)
        for key in differing:
            print(f"MISMATCH {key}: fixture {expected.get(key)} "
                  f"!= {actual.get(key)}")
        print(f"{len(actual) - len(differing)}/{len(expected)} golden "
              f"episodes identical to {args.fixture.name}")
        return 1 if differing else 0
    payload = {
        "generated_by": {"ref": args.ref, "seed": SEED, "cells": CELLS},
        "episodes": actual,
    }
    args.fixture.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(actual)} episode digests to {args.fixture}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
