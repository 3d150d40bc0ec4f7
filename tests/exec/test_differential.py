"""Differential oracles: parallel execution must change nothing.

The engine's contract is that worker count is a pure performance knob
— the serial in-process path is the oracle and every parallel
configuration must reproduce it exactly (bytes on disk).
"""

import pytest

from repro.artifact import generate_results

#: trimmed config set: two domains, three tasks — enough to exercise
#: scheduling without the full nine-config artifact runtime
CONFIGS = (("word_lm", 1024), ("word_lm", 2048), ("image", 1))


def _read_all(out_dir):
    return {path.name: path.read_bytes()
            for path in sorted(out_dir.iterdir())}


class TestArtifactByteIdentity:
    @pytest.fixture(scope="class")
    def serial_outputs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("artifact-serial")
        generate_results(str(out), CONFIGS)
        return _read_all(out)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_run_is_byte_identical(self, workers, serial_outputs,
                                        tmp_path):
        out = tmp_path / f"artifact-w{workers}"
        generate_results(str(out), CONFIGS, max_workers=workers)
        parallel_outputs = _read_all(out)
        assert sorted(parallel_outputs) == sorted(serial_outputs)
        for name, blob in serial_outputs.items():
            assert parallel_outputs[name] == blob, (
                f"{name} differs between serial and "
                f"--max-workers {workers}")

    def test_file_set_complete(self, serial_outputs):
        assert set(serial_outputs) == {
            "output_word_lm_1024.txt", "output_word_lm_2048.txt",
            "output_image_1.txt", "summary.txt",
        }
