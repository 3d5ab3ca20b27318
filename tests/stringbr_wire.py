"""Writers for the string-bracket wire format, the inverses of the loaders
``stringbr.bv_data_from_dict`` and ``stringbr.pair_from_dict``.  Only the
tests write presentations back to plain dictionaries, so the writers live
here."""

from operadkit.exact import format_rational


def format_cols(cols, nrows, ncols):
    """Row-major rational strings of a matrix held as sparse columns; the
    inverse of ``stringbr._parse_matrix_cols``."""
    return [
        [format_rational(cols.get(c, {}).get(r, 0)) for c in range(ncols)]
        for r in range(nrows)
    ]


def bv_data_to_dict(data):
    n = data.dim
    out = {
        "basis": [
            {"name": nm, "degree": d} for nm, d in zip(data.names, data.degrees)
        ],
        "product": [],
        "delta": format_cols(data.delta, n, n),
    }
    for (i, j), entry in sorted(data.product.items()):
        if not entry:
            continue
        coeffs = [format_rational(entry.get(m, 0)) for m in range(n)]
        out["product"].append([i, j, coeffs])
    return out


def pair_to_dict(pair):
    out = bv_data_to_dict(pair.A)
    out["B"] = {
        "basis": [
            {"name": nm, "degree": d}
            for nm, d in zip(pair.b_names, pair.b_degrees)
        ]
    }
    out["tau"] = format_cols(pair.tau, pair.A.dim, pair.b_dim)
    out["p"] = format_cols(pair.p, pair.b_dim, pair.A.dim)
    return out
