"""The output digest of tools/digest.py: it repeats, and it sees one changed bit."""

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


def test_digest_repeats_and_moves_with_one_parameter_bit():
    tool = load_tool()
    cfg = tool.config("hc-p2-identity")
    first = tool.digest(cfg)
    assert len(first) == 64 and tool.digest(cfg) == first
    params = init_params(cfg)
    assert tool.digest(cfg, params) == first
    weights = params.backbone.weights.data
    weights[1, 0, 0, 0] = np.nextafter(weights[1, 0, 0, 0], np.inf)
    before = weights.copy()
    assert tool.digest(cfg, params) != first
    np.testing.assert_array_equal(params.backbone.weights.data, before)  # left unchanged
