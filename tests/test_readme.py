"""Every ```python block of README runs as written.

Each block runs in a fresh namespace, in a temporary directory that holds
the ``h2.wfn`` its ``.wfn`` example opens (the fci model at R = 1.4).
"""
import pathlib
import re

import pytest

from entropart.models import fci_model, natural_orbitals
from entropart.wfnio import build_document, write_wfn

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path, monkeypatch):
    model = fci_model(1.4)
    doc = build_document(model.molecule(), model.field().basis,
                         natural_orbitals(model), title="H2 fci R=1.4")
    (tmp_path / "h2.wfn").write_text(write_wfn(doc))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
