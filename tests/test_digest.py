"""The digests of tools/digest.py: they repeat, and each part sees one changed
bit of what it reads."""

import importlib.util
import os

import numpy as np

from freqcast.model import init_params

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "digest.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("digest_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_repeats_and_each_part_reading_the_parameters_moves_with_one_bit():
    """A bit flipped in the initial parameters moves every part that starts
    from them; ``fit`` starts from the config's own and holds."""
    tool = load_tool()
    cfg = tool.config("hc-p2-identity")
    first = tool.digest(cfg)
    assert tuple(first) == tool.PARTS and all(len(d) == 64 for d in first.values())
    assert tool.digest(cfg) == first
    params = init_params(cfg)
    assert tool.digest(cfg, params) == first
    weights = params.backbone.weights.data
    weights[1, 0, 0, 0] = np.nextafter(weights[1, 0, 0, 0], np.inf)
    before = weights.copy()
    moved = tool.digest(cfg, params)
    assert [part for part in tool.PARTS if moved[part] != first[part]] == [
        "init", "round-trip", "steps", "predict"]
    np.testing.assert_array_equal(params.backbone.weights.data, before)  # left unchanged


def test_conformance_digest_repeats_and_moves_with_the_seed():
    tool = load_tool()
    first = tool.conformance_digest()
    assert len(first) == 64 and tool.conformance_digest() == first
    assert tool.conformance_digest(seed=1) != first
