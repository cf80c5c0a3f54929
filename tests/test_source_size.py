"""Each module of the package stays under 8 192 parser tokens.

The benchmark workers compile src/eamod at every start, and CPython's
parser doubles its token array past 8 192 tokens: modrep.py at 8 457
tokens compiled with a 0.6 MB larger tracemalloc peak, and the import
peak RSS of a worker rose by about 0.45 MB (compile_memory in
BENCH_free-by-rank.json).  Tokens are counted as tokenize yields them,
without COMMENT, NL and ENCODING; a docstring is one token.
"""

import tokenize
from pathlib import Path

import pytest

import eamod

LIMIT = 8192
SOURCES = sorted(Path(eamod.__file__).parent.glob("*.py"))


def parser_tokens(path: Path) -> int:
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as fh:
        return sum(token.type not in skipped for token in tokenize.tokenize(fh.readline))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_stays_under_the_parser_token_limit(path):
    assert parser_tokens(path) < LIMIT, f"{path.name} has {parser_tokens(path)} parser tokens"


def test_the_count_sees_every_module():
    assert {path.name for path in SOURCES} >= {"gf.py", "linalg.py", "modrep.py", "variety.py"}
    assert parser_tokens(Path(eamod.__file__).parent / "modrep.py") > LIMIT // 2
