"""Microbenchmarks of the NN substrate's hot paths.

Not tied to a paper table — these measure the primitives every federated
round is built from (conv forward/backward via im2col, a full client
training step, CVAE ELBO step, flat-vector round-trip) and the kernels
under them (im2col, col2im, max-pool and the Adam step), so performance
regressions in the substrate are visible independently of the federation
benches.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import scaled_cnn, scaled_cvae


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    return rng.random((32, 1, 16, 16)), rng.integers(0, 10, 32)


def test_bench_cnn_forward(benchmark, batch):
    x, _ = batch
    model = scaled_cnn(16, np.random.default_rng(1))
    benchmark(lambda: model(x))


def test_bench_cnn_training_step(benchmark, batch):
    x, y = batch
    model = scaled_cnn(16, np.random.default_rng(1))
    opt = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
    ce = nn.SoftmaxCrossEntropy()

    def step():
        ce(model(x), y)
        opt.zero_grad()
        model.backward(ce.backward())
        opt.step()

    benchmark(step)


def test_bench_cvae_training_step(benchmark, batch):
    x, y = batch
    flat = x.reshape(32, -1)
    cvae = scaled_cvae(input_dim=256, rng=np.random.default_rng(1))
    opt = nn.Adam(cvae.parameters(), lr=1e-3)
    loss_fn = nn.CVAELoss()
    rng = np.random.default_rng(2)

    def step():
        target = cvae.reconstruction_target(flat, y)
        recon, mu, logvar = cvae.forward(flat, y, rng)
        loss_fn(recon, target, mu, logvar)
        opt.zero_grad()
        cvae.backward(*loss_fn.backward())
        opt.step()

    benchmark(step)


def test_bench_decoder_generation(benchmark):
    cvae = scaled_cvae(input_dim=256, rng=np.random.default_rng(1))
    labels = np.tile(np.arange(10), 10)
    rng = np.random.default_rng(2)
    benchmark(lambda: cvae.generate(labels, rng))


# The paper_scaled CNN's two conv geometries (5×5 kernel, padding 2):
# conv1 on the 16×16 input and conv2 on the pooled 8×8 maps.
CONV_INPUTS = {"conv1": (32, 1, 16, 16), "conv2": (32, 8, 8, 8)}


@pytest.mark.parametrize("shape", CONV_INPUTS.values(), ids=CONV_INPUTS.keys())
def test_bench_im2col(benchmark, shape):
    x = np.random.default_rng(0).random(shape)
    benchmark(lambda: nn.functional.im2col(x, 5, 5, padding=2))


@pytest.mark.parametrize("shape", CONV_INPUTS.values(), ids=CONV_INPUTS.keys())
def test_bench_col2im(benchmark, shape):
    cols = nn.functional.im2col(np.random.default_rng(0).random(shape), 5, 5, padding=2)
    benchmark(lambda: nn.functional.col2im(cols, shape, 5, 5, padding=2))


@pytest.fixture(scope="module")
def pool_input():
    """conv1's post-ReLU maps, (32, 8, 16, 16): the pool runs it as the
    (1, 32, 8, 16, 16) client stack."""
    rng = np.random.default_rng(0)
    x = nn.functional.relu(rng.standard_normal((32, 8, 16, 16)))
    return x, rng.standard_normal((32, 8, 8, 8))


def test_bench_maxpool_forward(benchmark, pool_input):
    x, _ = pool_input
    pool = nn.MaxPool2d(2)
    benchmark(lambda: pool(x))


def test_bench_maxpool_backward(benchmark, pool_input):
    x, grad_out = pool_input
    pool = nn.MaxPool2d(2)
    pool(x)
    benchmark(lambda: pool.backward(grad_out))


def test_bench_adam_step(benchmark):
    """One step over the paper_scaled CVAE's parameters."""
    cvae = scaled_cvae(input_dim=256, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for p in cvae.parameters():
        p.grad[...] = rng.standard_normal(p.shape)
    opt = nn.Adam(cvae.parameters(), lr=1e-3)
    benchmark(opt.step)


def test_bench_parameter_roundtrip(benchmark):
    model = scaled_cnn(16, np.random.default_rng(1))
    buf = np.empty(model.count_parameters())

    def roundtrip():
        nn.parameters_to_vector(model, out=buf)
        nn.vector_to_parameters(buf, model)

    benchmark(roundtrip)
