"""The fixed-seed CLI outputs equal the checked-in goldens byte for byte."""

import numpy as np

from regenerate_goldens import GOLDEN_DIR, NUMPY_VERSION_FILE, diff_report, golden_outputs


def test_outputs_equal_goldens_byte_for_byte(tmp_path):
    recorded = (GOLDEN_DIR / NUMPY_VERSION_FILE).read_text().strip()
    fresh = golden_outputs(tmp_path)
    golden = {name: (GOLDEN_DIR / name).read_bytes() for name in fresh}
    differ = [name for name, data in fresh.items() if golden[name] != data]
    report = "\n".join(line for name in differ
                       for line in diff_report(name, golden[name], fresh[name]))
    assert not differ, (
        f"outputs that differ from the goldens: {', '.join(differ)}. The goldens were written "
        f"with numpy {recorded}; this run uses numpy {np.__version__}. If the change is meant, run "
        f"`PYTHONPATH=src python3 tests/regenerate_goldens.py` and state its report.\n{report}")
