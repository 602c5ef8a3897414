"""Correctness checks on webrank JSON reports, from values computed here.

Nothing is compared with a stored copy of earlier output.  Expected ranks
come from the closed formulas of the method, computed with `math.comb`:

* web size in dimension n: d = C(n+k0-1, k0);
* maximal rank of the calibrated web: k0*d - C(n+k0, k0) + 1;
* maximal rank of the order-h jet matrix: min(d, C(n+h-1, h));
* size of the arity-k square block: C(k0-1, k-1);
* exact-support table: N(2) = r(2), N(h) = r(h) - sum_{j<h} N(j) * C(h, j).

Each check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

from math import comb

TRUE = "true"
FALSE = "false"


def web_size(n: int, k0: int) -> int:
    return comb(n + k0 - 1, k0)


def max_rank(n: int, k0: int) -> int:
    return k0 * web_size(n, k0) - comb(n + k0, k0) + 1


def support_table(k0: int) -> dict[int, int]:
    table: dict[int, int] = {}
    for h in range(2, k0 + 1):
        table[h] = max_rank(h, k0) - sum(table[j] * comb(h, j) for j in range(2, h))
    return table


def _int_keys(table) -> dict[int, int] | None:
    if table is None:
        return None
    return {int(key): value for key, value in table.items()}


def _check_stabilized(where: str, record: dict, expected: int) -> list[str]:
    problems = []
    if record.get("value") != expected:
        problems.append(f"{where}: rank value {record.get('value')} != {expected}")
    if record.get("expected") != expected:
        problems.append(f"{where}: expected {record.get('expected')} != {expected}")
    dims = _int_keys(record.get("dims_trace") or {})
    order = record.get("stabilized_at")
    if order is None or dims.get(order) is None or dims[order] != dims.get(order + 1):
        problems.append(f"{where}: dims_trace {dims} not stabilized at order {order}")
    elif dims[order] != record.get("value"):
        problems.append(f"{where}: stabilized dimension {dims[order]} != value")
    if record.get("verdict") != TRUE:
        problems.append(f"{where}: verdict {record.get('verdict')!r}")
    return problems


def check_rank(report: dict, k0: int) -> list[str]:
    """Report of `webrank rank`: the stabilized dimension is the maximal rank."""
    n = report["n"]
    return _check_stabilized(f"rank n={n}", report, max_rank(n, k0))


def check_verify_family(
    report: dict,
    k0: int,
    expected_ordinary: bool,
    expected_max_rank: bool,
    corroborate: bool,
) -> list[str]:
    """Report of `webrank verify-family` for a family with known outcomes."""
    problems = []
    want = {
        "balanced": TRUE,
        "ordinary": TRUE if expected_ordinary else FALSE,
        "max_rank": TRUE if expected_max_rank else FALSE,
    }
    want["overall"] = TRUE if all(v == TRUE for v in want.values()) else FALSE
    verdicts = report.get("verdicts", {})
    for key, value in want.items():
        if verdicts.get(key) != value:
            problems.append(f"verdict {key}: {verdicts.get(key)!r} != {value!r}")

    criterion = report["ordinary"]["condition_iv"]
    if [c["k"] for c in criterion["checks"]] != list(range(1, k0 + 1)):
        problems.append("finite criterion does not cover every arity 1..k0")
    for check in criterion["checks"]:
        k, size = check["k"], comb(k0 - 1, check["k"] - 1)
        if check["size"] != size:
            problems.append(f"block k={k}: size {check['size']} != {size}")
        if check["verdict"] != TRUE:
            problems.append(f"block k={k}: verdict {check['verdict']!r}")
            continue
        witness = check["witness"]
        if "rank" in witness:
            if witness["rank"] != size:
                problems.append(f"block k={k}: float rank {witness['rank']} != {size}")
        elif witness.get("det") in (None, "0"):
            problems.append(f"block k={k}: determinant {witness.get('det')!r}")

    direct_dims = sorted({2, 3, k0, k0 + 1})
    directs = report["ordinary"]["direct"]
    if [d["witnesses"]["n"] for d in directs] != direct_dims:
        problems.append(f"direct checks do not cover n={direct_dims}")
    for direct in directs:
        n = direct["witnesses"]["n"]
        d = web_size(n, k0)
        size = direct["witnesses"]["size"]
        if size != d:
            problems.append(f"direct n={n}: web size {size} != {d}")
        if [c["h"] for c in direct["checks"]] != list(range(1, k0 + 1)):
            problems.append(f"direct n={n}: orders do not cover 1..k0")
        for check in direct["checks"]:
            bound = min(d, comb(n + check["h"] - 1, check["h"]))
            if check["best_rank"] != bound:
                problems.append(
                    f"direct n={n} h={check['h']}: rank {check['best_rank']} != {bound}"
                )

    per_n = report["rank"]["per_n"]
    n_values = list(range(2, k0 + 1)) + ([k0 + 1] if corroborate else [])
    if [r["n"] for r in per_n] != n_values:
        problems.append(f"rank checks do not cover n={n_values}")
    for record in per_n:
        problems += _check_stabilized(
            f"rank n={record['n']}", record, max_rank(record["n"], k0)
        )

    table = support_table(k0)
    for key in ("N_table_empirical", "N_table"):
        if _int_keys(report["rank"][key]) != table:
            problems.append(f"{key} {report['rank'][key]} != recursion {table}")
    return problems
