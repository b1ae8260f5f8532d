"""Plain-text table rendering for paper-style benchmark reports."""


def format_table(headers, rows, title=None):
    """Render an aligned text table.

    ``rows`` are sequences; floats are shown with two decimals.
    """
    def fmt(value):
        if isinstance(value, float):
            return f"{value:,.2f}"
        if isinstance(value, int):
            return f"{value:,}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    for row in str_rows:
        out.append(line(row))
    return "\n".join(out)

