"""The README's CLI lines and Library snippet run as written."""

import re
import shlex
from pathlib import Path

import pytest

from attrisk import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(section, language):
    """The first ``language`` code block under the README heading ``section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


CLI_LINES = [line for line in _block("CLI", "sh").splitlines() if line.startswith("attrisk ")]


def test_readme_shows_every_command():
    assert [shlex.split(line)[1] for line in CLI_LINES] == \
        ["attribute", "report", "attribute", "propagate", "selftest"]


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    argv = shlex.split(line)[1:]
    # Paths are relative to the checkout; --out goes to a scratch directory.
    argv = [str(ROOT / arg) if arg.startswith("src/") else arg for arg in argv]
    out = None
    if "--out" in argv:
        at = argv.index("--out") + 1
        out = argv[at] = str(tmp_path / argv[at])
    assert cli.main(argv) == 0
    written = Path(out).read_bytes() if out else capsys.readouterr().out.encode()
    assert written


def test_library_snippet_runs(capsys):
    exec(_block("Library", "python"), {})
    point, median = map(float, capsys.readouterr().out.split())
    assert point == pytest.approx(3.8232)
    assert median == pytest.approx(3.6, abs=0.15)
