"""Output oracles that need no eqzeta code.

``subgroups`` and ``marks`` output is checked against subgroup and class
counts of the named groups, taken from the literature (GroupNames, and for
dihedral groups D_n of order 2n: tau(n) + sigma(n) subgroups in
2 tau(n) + #{d | n : n/d even} classes), and against the structure of a
table of marks: lower triangular, column e equal to [G:K] and diagonal equal
to [N(K):K].
"""

from __future__ import annotations

# name -> (order, subgroups, conjugacy classes of subgroups)
LITERATURE = {
    "C2": (2, 2, 2),
    "C3": (3, 2, 2),
    "C4": (4, 3, 3),
    "C6": (6, 4, 4),
    "C8": (8, 4, 4),
    "S3": (6, 6, 4),
    "D4": (8, 10, 8),
    "C2xC2": (4, 5, 5),
    "C2xC4": (8, 8, 8),
    "C2^3": (8, 16, 16),
    "Q8": (8, 6, 6),
    "C2^4": (16, 67, 67),
    "C4xC4": (16, 15, 15),
    "S4": (24, 30, 11),
    "D12": (24, 34, 16),
    "S3xS3": (36, 60, 22),
    "C48": (48, 10, 10),
    "S4xC2": (48, 98, 33),
    "A5": (60, 59, 9),
    "D30": (60, 80, 20),
}


class Mismatch(Exception):
    """An output that contradicts its oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def parse_subgroups(text: str) -> list[tuple[str, int, int]]:
    """(label, order, class size) per line of ``subgroups`` text output."""
    rows = []
    for line in text.splitlines():
        label, _, rest = line.partition(": order=")
        order, _, rest = rest.partition(", count=")
        count, _, elements = rest.partition(", elements=")
        require(bool(elements), f"malformed subgroups line {line!r}")
        n_elems = len(elements.strip("[]").split(","))
        require(n_elems == int(order), f"{label}: {n_elems} elements listed for order {order}")
        rows.append((label, int(order), int(count)))
    return rows


def check_subgroups(key: str, text: str) -> list[tuple[str, int, int]]:
    order, n_subgroups, n_classes = LITERATURE[key]
    rows = parse_subgroups(text)
    require(len(rows) == n_classes, f"{key}: {len(rows)} classes, expected {n_classes}")
    total = sum(count for _, _, count in rows)
    require(total == n_subgroups, f"{key}: {total} subgroups, expected {n_subgroups}")
    require(rows[0][:2] == ("e", 1), f"{key}: first class is not the trivial subgroup")
    require(rows[-1][:2] == ("G", order), f"{key}: last class is not G")
    for label, k_order, count in rows:
        require(order % k_order == 0, f"{key}: class {label} has order {k_order}")
        require((order // k_order) % count == 0, f"{key}: class {label} has {count} conjugates")
    return rows


def parse_marks(text: str) -> tuple[list[str], list[list[int]]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0].startswith("columns: "), "marks output has no header")
    labels = lines[0][len("columns: "):].split()
    matrix = []
    for label, line in zip(labels, lines[1:]):
        head, _, values = line.partition(": ")
        require(head == label, f"marks row {head!r} where {label!r} was expected")
        matrix.append([int(v) for v in values.split()])
    require(len(matrix) == len(labels) == len(lines) - 1, "marks table is not square")
    return labels, matrix


def check_marks(key: str, text: str, subgroups=None) -> None:
    """Structure of the table of marks; with the same group's checked
    ``subgroups`` rows, also column e == [G:K] and diagonal == [N(K):K]."""
    order, n_subgroups, n_classes = LITERATURE[key]
    labels, matrix = parse_marks(text)
    require(len(labels) == n_classes, f"{key}: {len(labels)} marks rows, expected {n_classes}")
    total = 0
    for k, row in enumerate(matrix):
        require(len(row) == n_classes, f"{key}: marks row {k} has {len(row)} entries")
        require(all(v == 0 for v in row[k + 1:]), f"{key}: marks row {k} is not lower triangular")
        require(row[k] > 0 and row[0] % row[k] == 0, f"{key}: marks row {k} has diagonal {row[k]}")
        require(order % row[0] == 0, f"{key}: marks row {k} has [G:K] = {row[0]}")
        total += row[0] // row[k]  # [G:K] / [N(K):K] = number of conjugates
    require(total == n_subgroups, f"{key}: marks count {total} subgroups, expected {n_subgroups}")
    require(matrix[0][0] == order, f"{key}: G/e has {matrix[0][0]} points")
    require(all(v == 1 for v in matrix[-1]), f"{key}: G/G row is not all ones")
    if subgroups is not None:
        for k, (label, k_order, count) in enumerate(subgroups):
            require(labels[k] == label, f"{key}: marks label {labels[k]} vs subgroups {label}")
            require(matrix[k][0] == order // k_order, f"{key}: column e of {label} is not [G:K]")
            require(
                matrix[k][k] * count * k_order == order,
                f"{key}: diagonal of {label} is not [N(K):K]",
            )


def check_error(returncode: int, stdout: str, stderr: str) -> None:
    require(returncode == 1, f"exit code {returncode} on an invalid document, expected 1")
    require(stdout == "", "output printed for an invalid document")
    lines = stderr.splitlines()
    require(
        len(lines) == 1 and lines[0].startswith("error: "),
        f"expected exactly one error: line, got {stderr!r}",
    )
