"""Outcome classification: each operation is `ok`, `cap`, `wrong` or
`error`.

Answers are compared as content, not bytes: generator sets, verdicts,
and a cross-validation report's `passed` flag with its per-check
status.  A document may gain keys, and a brute-force check may turn
from `skip` into `pass`, without counting as wrong.
"""

from __future__ import annotations

import json
import traceback
from pathlib import Path

from spans import PACKAGE

REFERENCES = Path(__file__).resolve().parent / "corpus" / "references.json"
CAP_ERRORS = frozenset({"UnboundedMinimalSetError", "TooManyFacesError", "PoolTooLargeError",
                        "NoStabilizationError"})
# a resource cap exits 2 today; exit code 3 is reserved for it later
CAP_EXIT_CODES = (2, 3)


def load_references():
    return json.loads(REFERENCES.read_text())


def _gens(entry):
    return [list(g) for g in entry["generators"]]


def summarize(command, doc):
    """The content of a result document that the reference pins."""
    if command == "enumerate":
        return {
            "records": sorted(_gens(r) for r in doc["records"]),
            "smallest_nonzero": _gens(doc["extremal"]["smallest_nonzero"]),
            "largest": _gens(doc["extremal"]["largest"]),
        }
    if command == "test-ideal":
        return {"test_ideal": _gens(doc["test_ideal"])}
    if command == "stable-image":
        return {"stable_image": _gens(doc["stable_image"]), "largest_fixed": _gens(doc["largest_fixed"])}
    if command == "non-lc":
        return {"non_lc_ideal": _gens(doc["non_lc_ideal"])}
    if command == "verify":
        return {"verdict": doc["verdict"]}
    if command == "cross-validate":
        report = doc["report"]
        return {"passed": report["passed"], "checks": {c["name"]: c["status"] for c in report["checks"]}}
    raise ValueError(f"no summary for command {command!r}")


def failure_stage(exc):
    """The innermost package frame an exception passed through, as
    `module.qualname`."""
    stage = None
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith(PACKAGE + "."):
            stage = f"{module.split('.', 1)[1]}.{frame.f_code.co_qualname}"
    return stage


def _checks_hold(ref, got):
    if got["passed"] != ref["passed"]:
        return False
    for name, status in got["checks"].items():
        if status == "fail":
            return False
        if ref["checks"].get(name) == "pass" and status != "pass":
            return False
    return True


def _failure(result):
    """`cap` or `error` for a call that gave no answer, None otherwise."""
    if result.get("error") in CAP_ERRORS and result["exit"] in CAP_EXIT_CODES:
        return "cap"
    if result.get("error") is not None or result.get("summary") is None:
        return "error"
    return None


def classify(result, ref, nonlc_ref=None):
    """Outcome of one operation.

    `result` holds the exit code, the error class (None without one) and
    the summary; `ref` is the stored reference or None.  An operation
    without an `ok` reference is `ok` only when it is an enumerate whose
    largest fixed ideal equals the instance's non-LC reference.
    """
    failure = _failure(result)
    if failure:
        return failure
    code, got = result["exit"], result["summary"]
    if ref is None or ref["outcome"] != "ok":
        if result["command"] == "enumerate" and nonlc_ref is not None:
            return "ok" if code == 0 and got["largest"] == nonlc_ref["summary"]["non_lc_ideal"] else "wrong"
        return "error"
    if code != ref["exit"]:
        return "wrong"
    want = ref["summary"]
    if result["command"] == "cross-validate":
        return "ok" if _checks_hold(want, got) else "wrong"
    return "ok" if got == want else "wrong"


def _below(gens_small, gens_big, contains):
    """Every generator of the first ideal lies in the second."""
    return all(any(contains([a - b for a, b in zip(v, u)]) for u in gens_big) for v in gens_small)


def sweep_identities(results, contains, is_pair):
    """Check one sweep instance against the paper's identities, with no
    stored reference; returns {command: outcome} for its operations.

    The largest fixed ideal equals the non-LC ideal (and the stable image
    for a pair), the smallest nonzero one is the test ideal and lies in
    every nonzero record, and every record verifies as fixed.
    """
    outcome = {cmd: _failure(res) or ("ok" if res["exit"] == 0 else "error")
               for cmd, res in results.items() if cmd != "verify"}
    enum = results["enumerate"].get("summary")
    if enum is not None:
        smallest = enum["smallest_nonzero"]
        good = all(_below(smallest, gens, contains) for gens in enum["records"] if gens)
        nonlc = results["non-lc"].get("summary")
        if nonlc is not None and nonlc["non_lc_ideal"] != enum["largest"]:
            good = False
        test = results["test-ideal"].get("summary")
        if test is not None and test["test_ideal"] != smallest:
            outcome["test-ideal"] = "wrong"
        image = results["stable-image"].get("summary")
        if image is not None and (image["largest_fixed"] != enum["largest"]
                                  or (is_pair and image["stable_image"] != image["largest_fixed"])):
            outcome["stable-image"] = "wrong"
        if not good:
            outcome["enumerate"] = "wrong"
    outcome["verify"] = [_failure(res) or ("ok" if res["exit"] == 0 and res["summary"]["verdict"] == "fixed"
                                           else "wrong") for res in results["verify"]]
    return outcome
