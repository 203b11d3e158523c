"""README's code runs as written: the library quick start recovers the reward
within criterion 1's tolerances, and the config example is the parser's
config, key for key, at its defaults."""

import contextlib
import io
import json
import re
from pathlib import Path

from gwealth import config
from gwealth.config import config_from_dict

README = (Path(__file__).parents[1] / "README.md").read_text()


def block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL).group(1)


def test_quick_start_recovers_the_reward():
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block("Library quick start", "python"), "README.md", "exec"), namespace)
    fitted = namespace["report"].params.reward
    assert repr(fitted) in out.getvalue()
    # criterion 1's tolerances around the generating reward
    assert abs(fitted.lam - 0.001) <= 2e-4
    assert abs(fitted.eta - 1.01) <= 0.12
    assert abs(fitted.rho - 0.4) <= 0.05
    assert abs(float(fitted.omega) - 0.15) <= 0.01


def test_config_example_is_the_parsers_config():
    example = json.loads(block("Command-line pipeline", "json"))
    assert {name: set(keys) for name, keys in example.items()} == {
        name: set(hints) for name, hints in config._FIELD_TYPES.items()}
    assert config_from_dict(example) == config_from_dict({})
