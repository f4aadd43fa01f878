"""Line counts of the package source at a base revision and in the tree.

    python3 tools/src_lines.py [BASE]

For each module of src/smforge, and in total, print its ``wc -l`` and its
code lines at the git revision BASE (``HEAD^`` by default) and in the
working tree, with the change.  A code line holds a token other than a
comment, a docstring or a line break.  A module missing on one side
counts 0 there, and so does every module when there is no revision BASE
(a checkout of depth 1).  Run from the root of the repository.
"""
import ast
import subprocess
import sys
import tokenize
from io import StringIO
from pathlib import Path

PACKAGE = "src/smforge"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
         tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    code = {n for t in tokenize.generate_tokens(StringIO(text).readline)
            if t.type not in _SKIP
            for n in range(t.start[0], t.end[0] + 1)}
    return len(code - docs)


def counts(texts: dict) -> dict:
    """Module name -> (wc -l, code lines) of each text."""
    return {name: (text.count("\n"), code_lines(text))
            for name, text in texts.items()}


def tree_texts() -> dict:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(Path(PACKAGE).glob("*.py"))}


def base_texts(rev: str):
    """The modules at ``rev``, or None if there is no such revision."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True,
                              check=True).stdout.decode("utf-8")
    try:
        git("rev-parse", "-q", "--verify", f"{rev}^{{commit}}")
    except subprocess.CalledProcessError:
        return None
    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {n: git("show", f"{rev}:{PACKAGE}/{n}")
            for n in names if n.endswith(".py")}


def main(argv) -> int:
    rev = argv[1] if len(argv) > 1 else "HEAD^"
    texts = base_texts(rev)
    if texts is None:
        print(f"no revision {rev}: every module counts 0 there")
    base, tree = counts(texts or {}), counts(tree_texts())
    rows = [(name, *base.get(name, (0, 0)), *tree.get(name, (0, 0)))
            for name in sorted(base.keys() | tree.keys())]
    rows.append(("total", *map(sum, list(zip(*rows))[1:])))
    print(f"{rev} -> working tree: wc -l, then code lines")
    print(f"{'module':<14}{'base':>8}{'tree':>8}{'change':>8}"
          f"{'base':>8}{'tree':>8}{'change':>8}")
    for name, b_wc, b_code, t_wc, t_code in rows:
        print(f"{name:<14}{b_wc:>8}{t_wc:>8}{t_wc - b_wc:>+8}"
              f"{b_code:>8}{t_code:>8}{t_code - b_code:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
