#!/usr/bin/env python3
"""Line counts of the modules of ``src/hpgalerkin``.

Usage (from the root of a checkout):

    python3 tests/code_lines.py [--against REV]

Prints one row per module and a total: its ``wc -l`` count (``lines``)
and its code lines (``code``), the lines that hold a token outside
docstrings and comments, counted with ``tokenize``.  A docstring is the
string that opens a module, class or function body; a line counts when
any other token but a comment, a newline or an indentation covers it,
so every line of a multi-line expression or string counts.

``--against REV`` extracts the committed tree of the git revision REV
(``git archive``, as ``report_digest.py --against`` does) into a
temporary directory and prints both trees' counts side by side with
their differences, this checkout's minus REV's.  A module present on one
side only reads 0 on the other.  The script only reads: it exits 0
unless git cannot extract REV (exit 2).

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import argparse
import ast
import glob
import io
import os
import sys
import tempfile
import tokenize

from report_digest import ROOT, extract_tree

# token types that make no line a code line
_BLANK = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """(wc -l lines, code lines) of the Python source text."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _BLANK:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return text.count("\n"), len(code)


def module_counts(root):
    """{module file name: (lines, code)} for src/hpgalerkin under root."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "hpgalerkin", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = count(fh.read())
    return counts


def table(sides, labels):
    """The rows to print, one per module and the total, with a (lines,
    code) pair per side and, for two sides, their change."""
    names = sorted(set().union(*sides))
    totals = [tuple(map(sum, zip(*side.values()))) for side in sides]
    pairs = [[side.get(n, (0, 0)) for side in sides] for n in names] + [totals]
    if len(sides) == 2:
        labels = labels + ["change"]
        pairs = [[a, b, (b[0] - a[0], b[1] - a[1])] for a, b in pairs]
    rows = [f"{'module':<14}" + "".join(f" {'lines':>7} {'code':>6}" for _ in labels)]
    rows.append(f"{'':<14}" + "".join(f" {label[:14]:>14}" for label in labels))
    for name, cells in zip(names + ["total"], pairs):
        rows.append(
            f"{name:<14}"
            + "".join(f" {a:>7} {b:>6}" for a, b in cells[:2])
            + "".join(f" {a:>+7} {b:>+6}" for a, b in cells[2:])
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv)
    mine = module_counts(ROOT)
    if args.against is None:
        print("\n".join(table([mine], ["here"])))
        return 0
    with tempfile.TemporaryDirectory(prefix="code-lines-") as tmp:
        if not extract_tree(args.against, tmp):
            return 2
        theirs = module_counts(tmp)
    print("\n".join(table([theirs, mine], [args.against, "here"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
