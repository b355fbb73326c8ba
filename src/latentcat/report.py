"""Plain-text and CSV renderers for the JSON artifacts.

Tables mirror the journal layout: test tables carry the statistic, three
bootstrap critical values, the subsample size, and significance stars
(* p<0.10, ** p<0.05, *** p<0.01); coefficient tables put bootstrap
standard errors in parentheses under each estimate. Ordered-response
coefficients are labeled as conditional-median effects.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

STAR_NOTE = "* p<0.10, ** p<0.05, *** p<0.01"
NORMAL_Q = {0.10: 1.6448536269514722, 0.05: 1.959963984540054, 0.01: 2.5758293035489004}


def stars_from_z(z: float) -> str:
    az = abs(z)
    if az > NORMAL_Q[0.01]:
        return "***"
    if az > NORMAL_Q[0.05]:
        return "**"
    if az > NORMAL_Q[0.10]:
        return "*"
    return ""


def _fmt(value, nd=3) -> str:
    return f"{value:.{nd}f}"


def _test_rows(reports: list[dict]) -> list[list[str]]:
    rows = []
    for rep in reports:
        cvs = rep["critical_values"]
        rows.append(
            [
                rep.get("w_cell") or "pooled",
                _fmt(rep["statistic"]) + rep.get("stars", ""),
                _fmt(cvs["0.90"]),
                _fmt(cvs["0.95"]),
                _fmt(cvs["0.99"]),
                f"{rep['n']:,}",
            ]
        )
    return rows


def _layout(header: list[str], rows: list[list[str]], footer: str = "") -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = []
    rule = "  ".join("-" * w for w in widths)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append(rule)
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if footer:
        lines.append(footer)
    return "\n".join(lines) + "\n"


def _test_reports(payload: dict) -> list[dict]:
    """The reports of a test artifact: the pooled one, then one per cell; a
    single test (no ``pooled``) is its own report."""
    if "pooled" not in payload:
        return [payload]
    return [payload["pooled"], *payload.get("cells", [])]


def render_test(payload: dict) -> str:
    """Text table for a test artifact: a single test, or a suite (pooled
    plus per-cell rows, then any skipped cells)."""
    header = ["group", "TS", "90%", "95%", "99%", "N"]
    out = "Conditional-independence misclassification test\n"
    out += _layout(header, _test_rows(_test_reports(payload)), STAR_NOTE)
    skipped = payload.get("skipped", [])
    if skipped:
        out += "skipped cells: " + ", ".join(
            f"{s['w_cell']} (n={s['n']}, {s['reason']})" for s in skipped
        ) + "\n"
    return out


def _matrix_lines(name: str, mat: dict) -> list[str]:
    arr = np.asarray(mat["data"], dtype=float).reshape(mat["rows"], mat["cols"])
    lines = [f"  {name}:"]
    for row in arr:
        lines.append("    " + "  ".join(f"{v:8.4f}" for v in row))
    return lines


def render_models(payload: dict) -> str:
    """Per-cell identified models with diagnostics."""
    lines = [f"Identified misclassification models (method: {payload['method']})"]
    for entry in payload["cells"]:
        label = entry.get("w_cell") or "pooled"
        n_val = entry.get("n")
        n_txt = f"{n_val:,}" if isinstance(n_val, int) else "?"
        lines.append(f"\ncell {label} (n={n_txt})")
        if "error" in entry:
            lines.append(f"  identification failed: {entry['error']}")
            continue
        model = entry["model"]
        lines.extend(_matrix_lines("P(reported | latent)", model["m_x_given_xstar"]))
        lines.append(
            "  P(Y=1 | latent):   "
            + "  ".join(f"{v:8.4f}" for v in model["f_y_given_xstar"])
        )
        lines.extend(_matrix_lines("P(second | latent)", model["m_z_given_xstar"]))
        lines.append(
            "  latent marginal:   "
            + "  ".join(f"{v:8.4f}" for v in model["f_xstar"])
        )
        notes = []
        if not model.get("ord_satisfied", True):
            notes.append("monotone-reporting check FAILED")
        if "loglik" in entry:
            notes.append(f"loglik {entry['loglik']:.2f}")
            if "saturation_gap" in entry:
                notes.append(f"saturation gap {entry['saturation_gap']:.3g}")
            notes.append(
                f"{entry['n_starts_agreeing']}/{entry['n_starts_converged']} "
                "converged starts agree"
            )
        if entry.get("boundary_flags"):
            notes.append("boundary: " + "; ".join(entry["boundary_flags"]))
        if notes:
            lines.append("  [" + " | ".join(notes) + "]")
        if entry.get("boot"):
            lines.append("  " + _boot_line(entry["boot"]))
    return "\n".join(lines) + "\n"


def render_fit(payload: dict) -> str:
    """Coefficient table with parenthesized standard errors and stars."""
    fit = payload["fit"]
    se = fit.get("std_errors")
    rows = []
    for i, name in enumerate(fit["column_names"]):
        beta = fit["beta"][i]
        if se is not None:
            star = stars_from_z(beta / se[i]) if se[i] > 0 else ""
            rows.append([name, _fmt(beta, 4) + star])
            rows.append(["", f"({_fmt(se[i], 4)})"])
        else:
            rows.append([name, _fmt(beta, 4)])
    title = {
        "linear": "Linear projection",
        "ordered-probit-homoskedastic": "Homoskedastic ordered probit",
        "ordered-probit-heteroskedastic": "Heteroskedastic ordered probit",
    }.get(fit["kind"], fit["kind"])
    out = f"{title}: {fit['target']} outcome ({fit['effect_scale']})\n"
    out += _layout(["", "estimate"], rows, STAR_NOTE if se is not None else "")
    cuts = fit.get("cutpoints") or []
    if len(cuts) > 2:
        out += "cutpoints: " + ", ".join(_fmt(c, 4) for c in cuts) + "\n"
    if fit.get("sigma_by_cell"):
        sig = fit["sigma_by_cell"]
        out += "scale by cell: " + ", ".join(
            f"{k}={_fmt(v, 3)}" for k, v in sorted(sig.items())
        ) + "\n"
    if payload.get("boot"):
        out += _boot_line(payload["boot"]) + "\n"
    return out


def _boot_items(boot: dict) -> list[tuple[str, object]]:
    """Bootstrap telemetry as (name, value) pairs; drops are split by reason."""
    items = [("b", boot["b"]), ("n_dropped", boot["n_dropped"])]
    items += [(f"dropped_{k}", v) for k, v in sorted(boot.get("dropped", {}).items())]
    items += [(k, boot[k]) for k in ("boundary_hits", "seed") if k in boot]
    return items


def _boot_line(boot: dict) -> str:
    return "bootstrap: " + ", ".join(f"{k}={v}" for k, v in _boot_items(boot))


def render_exclusions(payload: dict) -> str:
    lines = [
        f"records read: {payload['n_read']}, kept: {payload['n_kept']}, "
        f"excluded: {payload['n_excluded']}"
    ]
    for reason, count in payload.get("reasons", {}).items():
        lines.append(f"  {reason}: {count}")
    return "\n".join(lines) + "\n"


def render(payload: dict) -> str:
    """Dispatch on artifact shape."""
    if "pooled" in payload or "statistic" in payload:
        return render_test(payload)
    if "cells" in payload and "method" in payload:
        return render_models(payload)
    if "fit" in payload:
        return render_fit(payload)
    raise DataError("unrecognized artifact schema")


def render_csv(payload: dict) -> str:
    """Flat numeric export of an artifact."""
    lines = []
    if "pooled" in payload or "statistic" in payload:
        lines.append("group,statistic,cv90,cv95,cv99,p_value,n")
        for rep in _test_reports(payload):
            cvs = rep["critical_values"]
            lines.append(
                f"{rep.get('w_cell') or 'pooled'},{rep['statistic']!r},"
                f"{cvs['0.90']!r},{cvs['0.95']!r},{cvs['0.99']!r},"
                f"{rep['p_value']!r},{rep['n']}"
            )
    elif "fit" in payload:
        fit = payload["fit"]
        se = fit.get("std_errors")
        lines.append("term,estimate,std_error")
        for i, name in enumerate(fit["column_names"]):
            se_txt = "" if se is None else repr(se[i])
            lines.append(f"{name},{fit['beta'][i]!r},{se_txt}")
        if payload.get("boot"):
            lines.append("")
            lines.append("bootstrap,value")
            lines.extend(f"{k},{v}" for k, v in _boot_items(payload["boot"]))
    elif "cells" in payload and "method" in payload:
        lines.append("w_cell,n,loglik,saturation_gap,b,n_dropped,"
                     "dropped_estimator_failed,boundary_hits")
        for entry in payload["cells"]:
            boot = entry.get("boot") or {}
            values = [entry.get("w_cell") or "pooled", entry.get("n"),
                      entry.get("loglik"), entry.get("saturation_gap"), boot.get("b"),
                      boot.get("n_dropped"), boot.get("dropped", {}).get("estimator_failed"),
                      boot.get("boundary_hits")]
            lines.append(",".join("" if v is None else str(v) for v in values))
    else:
        raise DataError("no CSV rendering for this artifact")
    return "\n".join(lines) + "\n"
