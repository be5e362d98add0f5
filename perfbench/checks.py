"""Correctness checks on the rows a workload produces.

They run outside the timed loop, on the first pass's output.  Each check
returns a list of problems; an empty list means the row is correct.  The
identities are the ones the package promises for family words (see
``braidvol.report.verify``), re-derived here from the JSON row alone so that
the benchmark does not trust the code it measures.
"""

from __future__ import annotations

SCHEMA = "braidvol/1"

ANALYZE_KEYS = frozenset(
    {
        "schema", "word", "n", "syllables", "crossings", "twist", "circles",
        "m", "adequate", "telc", "connected", "neg_chi", "main_lemma",
        "stoimenow", "bounds", "jones_bounds", "s_bounds", "schreier",
        "turaev", "bracket",
    }
)


def check_analyze_row(row: dict, family: bool) -> list[str]:
    """Problems with one ``analyze`` report; ``family`` says the word was
    generated as a family word.  Any word that passes the family gate must
    satisfy the family identities (a random word does, rarely); any other
    word must get no volume bounds."""
    if row.get("schema") != SCHEMA:
        return [f"schema is {row.get('schema')!r}"]
    if "error" in row:
        return [f"error row: {row['error']}"]
    if set(row) != ANALYZE_KEYS:
        return [f"key set differs: {sorted(set(row) ^ ANALYZE_KEYS)}"]
    if not row["main_lemma"]["pass"]:
        if family:
            return ["family word fails main_lemma"]
        if row["bounds"] is not None:
            return ["word outside the family got volume bounds"]
        return []

    problems = []
    census = row["circles"]["census"]
    small = census["small_inner"]
    expected_small = sum(-r - 1 for _, r in row["syllables"] if r < 0)
    if small != expected_small:
        problems.append(f"small_inner {small} != sum(|r|-1) {expected_small}")
    t = row["twist"]["t"]
    non_small = sum(census.values()) - small
    if row["neg_chi"] != t - non_small:
        problems.append(
            f"neg_chi {row['neg_chi']} != t - #non-small = {t} - {non_small}"
        )
    bounds = row["bounds"]
    if bounds is None:
        problems.append("family word has no volume bounds")
    elif not bounds["effective_lower"] <= bounds["upper"]:
        problems.append(
            f"effective_lower {bounds['effective_lower']}"
            f" > upper {bounds['upper']}"
        )
    if row["n"] == 3:
        schreier = row["schreier"]
        if schreier["s"] != row["twist"]["t_minus"]:
            problems.append(
                f"schreier s {schreier['s']} != t_minus"
                f" {row['twist']['t_minus']}"
            )
        if not schreier["hyperbolic"]:
            problems.append("family 3-braid closure not hyperbolic")
    return problems


def check_verify_row(row: dict) -> list[str]:
    """Problems with one ``verify`` result (its ``to_json_dict`` form)."""
    names = [c["name"] for c in row["checks"]]
    problems = [
        f"check {c['name']} failed: {c['detail']}"
        for c in row["checks"]
        if not c["pass"]
    ]
    if not row["pass"] and not problems:
        problems.append("verify failed with every check passing")
    if "bracket_oracle" not in names:
        problems.append("bracket_oracle check missing")
    return problems
