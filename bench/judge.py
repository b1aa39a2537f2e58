"""Oracles that decide which operations failed.

They run in the orchestrating process after the measured process has exited,
so they may use networkx and scipy. An operation fails when it raised, when
its output disagrees with the workload's oracle, or when a repeat of an input
gave a different output than its first run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from inputs import search_expected

SIGMAS = 5.0  # an estimate must lie within this many reported standard errors


def digest(outcome) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def closed_form_3d(gens) -> float:
    """Spherical-triangle solid angle over 4*pi (van Oosterom-Strackee)."""
    g = np.asarray(gens, dtype=float)
    g = g / np.linalg.norm(g, axis=1)[:, None]
    omega = 2.0 * math.atan2(abs(float(np.linalg.det(g))),
                             1.0 + g[0] @ g[1] + g[1] @ g[2] + g[2] @ g[0])
    return omega / (4.0 * math.pi)


def orthant_reference(gens) -> float:
    """Fraction of the ball in cone(gens): P(M^-1 z >= 0) for z ~ N(0, I), M = gens^T."""
    g = np.asarray(gens, dtype=float)
    d = g.shape[0]
    if d == 3:
        return closed_form_3d(g)
    from scipy.stats import multivariate_normal

    m_inv = np.linalg.inv(g.T)
    return float(multivariate_normal.cdf(np.zeros(d), mean=np.zeros(d), cov=m_inv @ m_inv.T,
                                         abseps=1e-7, releps=0.0, rng=0))


def _within(est, ref) -> bool:
    return abs(est["fraction"] - ref) <= SIGMAS * est["std_error"]


class Judge:
    """Judges outcomes item by item; repeats must reproduce the first outcome.

    Orthant references cost up to 2 s each and the cones they are asked for
    are mostly the fixed panel, so they are kept in a file across runs.
    """

    def __init__(self, context, cache_path):
        self.ctx = context
        self.first = {}       # item -> (digest, ok, why)
        self.mc_errors = {}   # item -> (dimension, |estimate - reference|)
        self._cache_path = cache_path
        self._refs = {}
        if os.path.exists(cache_path):
            with open(cache_path, encoding="utf-8") as fh:
                self._refs = json.load(fh)
        self._dirty = False

    def reference(self, gens) -> float:
        key = hashlib.sha256(json.dumps(gens).encode()).hexdigest()
        if key not in self._refs:
            self._refs[key] = orthant_reference(gens)
            self._dirty = True
        return self._refs[key]

    def save(self):
        if self._dirty:
            tmp = f"{self._cache_path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self._refs, fh)
            os.replace(tmp, self._cache_path)

    def __call__(self, item, payload):
        """(ok, reason) for one operation's outcome line."""
        if isinstance(payload, dict) and set(payload) == {"digest"}:
            dig = payload["digest"]
        else:
            dig = digest(payload)
            if item not in self.first:
                if isinstance(payload, dict) and payload.get("error"):
                    verdict = (False, payload["error"])
                else:
                    verdict = self.judge(item, payload)
                self.first[item] = (dig, *verdict)
        first_dig, ok, why = self.first[item]
        if dig != first_dig:
            return False, "output differs from the first run of the same input"
        return ok, why

    def judge(self, item, outcome):
        raise NotImplementedError


class TheoremJudge(Judge):
    """Every verdict passes; graph6 and the matrix match networkx's view of the graph."""

    def judge(self, item, oc):
        it = self.ctx["inputs"]["items"][item]
        g6, a_sha = self.ctx["atlas_truth"][it["atlas"]]
        if oc["g6"] != g6:
            return False, "graph6 text differs from networkx's encoding"
        if oc["a_sha"] != a_sha:
            return False, "decoded matrix differs from the atlas adjacency"
        if not oc["found"]:
            return False, "search found no certificate for a card-class relabelling"
        if len(oc["verdicts"]) != 6 or not all(oc["verdicts"]):
            return False, f"verdicts {oc['verdicts']}"
        for text in oc["reports"]:
            report = json.loads(text)
            if not report.get("passed", report.get("valid")):
                return False, "serialised report does not pass"
        return True, None


class SearchJudge(Judge):
    """Found iff the cards are pairwise isomorphic; certificates must verify."""

    def judge(self, item, sigma):
        from reconlab.hypomorphism import Hypomorphism, verify_hypomorphism
        from reconlab.matrixcore import Permutation, SymmetricMatrix, perm_similarity

        it = self.ctx["inputs"]["items"][item]
        expected = search_expected(self.ctx["classes"][it["graph"]], it["tau"])
        if (sigma is not None) != expected:
            return False, f"search says {sigma is not None}, card isomorphism says {expected}"
        if sigma is None:
            return True, None
        n, edges = self.ctx["inputs"]["graphs"][it["graph"]]
        a = np.zeros((n, n))
        for u, v in edges:
            a[u, v] = a[v, u] = 1.0
        A = SymmetricMatrix(a)
        B = perm_similarity(A, Permutation(tuple(it["tau"])))
        cert = verify_hypomorphism(A, B, Hypomorphism(tuple(Permutation(tuple(s)) for s in sigma)))
        return cert.valid, None if cert.valid else "certificate fails verify_hypomorphism"


class SolidAngleJudge(Judge):
    def judge(self, item, oc):
        it = self.ctx["inputs"]["items"][item]
        kind = it["kind"]
        if kind == "mc":
            ref = self.reference(it["cone"]["gens"])
            self.mc_errors[item] = (it["cone"]["d"], abs(oc["mc"]["fraction"] - ref))
            if not _within(oc["mc"], ref):
                return False, f"estimate {oc['mc']['fraction']} vs reference {ref}"
            if oc["exact"] is not None and abs(oc["exact"] - ref) > 1e-12:
                return False, f"closed form {oc['exact']} vs reference {ref}"
            return True, None
        if kind == "partition":
            ok = abs(oc["sum"] - 1.0) <= SIGMAS * oc["std_error"] + 1e-9
            return ok, None if ok else f"leave-one-out fractions sum to {oc['sum']}"
        if kind == "suite":
            bad = [name for name, (_, failed, _) in oc.items() if failed]
            return not bad, f"failed invariants {bad}" if bad else None
        big, small = (oc["rhs"], oc["lhs"]) if kind == "comparison" else (oc["lhs"], oc["rhs"])
        margin = SIGMAS * math.hypot(big["std_error"], small["std_error"])
        ok = big["fraction"] - small["fraction"] >= -margin
        return ok, None if ok else f"{kind} inequality violated beyond {SIGMAS} sigma"


class CliJudge(Judge):
    """Exit code as expected, JSON on the right stream, and the report itself right."""

    def judge(self, item, oc):
        cmd = self.ctx["inputs"]["items"][item]
        code, out, err = oc["code"], oc["stdout"], oc["stderr"]
        if code != cmd["expect"]:
            return False, f"exit {code}, expected {cmd['expect']}"
        if code == 2:
            lines = err.strip().splitlines()
            if len(lines) != 1 or not isinstance(json.loads(lines[0]), dict):
                return False, "usage error did not write one JSON object to stderr"
            return True, None
        if err:
            return False, "unexpected stderr"
        docs = [json.loads(line) for line in out.splitlines() if line.strip()]
        name = cmd["argv"][0]
        if name == "ingest":
            truth = self.ctx["g6_truth"][cmd["argv"][2].rsplit("/", 1)[-1]]
            got = [d["entries"] for d in docs]
            return got == truth, None if got == truth else "ingested matrices differ"
        doc = docs[0] if len(docs) == 1 else None
        if doc is None:
            return False, f"{len(docs)} JSON documents on stdout"
        if name == "gen-pair":
            return self._gen_pair(doc, code)
        if name == "deck":
            ok = len(doc["report"]["deck"]) == len(doc["report"]["deck"][0]["entries"]) + 1
            return ok, None if ok else "deck has the wrong number of cards"
        if name == "angle":
            gens = json.loads(self.ctx["inputs"]["files"][cmd["cone"]])["generators"]
            ref, est = self.reference(gens), doc["report"]
            if "--monte-carlo" in cmd["argv"]:
                self.mc_errors[item] = (len(gens), abs(est["fraction"] - ref))
                ok = _within(est, ref)
            else:
                ok = abs(est["fraction"] - ref) <= 1e-12
            return ok, None if ok else f"fraction {est['fraction']} vs reference {ref}"
        return doc["passed"] is True, None if doc["passed"] is True else "report does not pass"

    @staticmethod
    def _gen_pair(doc, code):
        from reconlab.hypomorphism import verify_hypomorphism
        from reconlab.serialize import pair_from_dict

        A, B, sigma = pair_from_dict(doc)
        if (sigma is None) != (code == 1):
            return False, "certificate presence disagrees with the exit code"
        if sigma is not None and not verify_hypomorphism(A, B, sigma).valid:
            return False, "certificate fails verify_hypomorphism"
        return True, None


JUDGES = {"atlas-theorem": TheoremJudge, "atlas-search": SearchJudge,
          "solid-angle": SolidAngleJudge, "cli-corpus": CliJudge}
