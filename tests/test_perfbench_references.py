"""The benchmark's reference values pass their own self-test.

``perfbench/references.py`` sums tori with the same closed-form axis
identity that ``rave_torus`` uses. Its self-test checks that identity
against direct sums, so running it here guards the identity itself.
"""

import importlib.util
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.py"


def test_references_self_test(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_references", REFERENCES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.self_test()
    assert "references self-test passed" in capsys.readouterr().out
