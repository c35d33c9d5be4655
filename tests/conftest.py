import numpy as np
import pytest

from segspell import synthgen
from segspell.alphabet import LetterAlphabet

SEED = 20160825


@pytest.fixture(scope="session")
def alphabet():
    return LetterAlphabet()


@pytest.fixture(scope="session")
def gen_config():
    return synthgen.GeneratorConfig()


@pytest.fixture(scope="session")
def signers(gen_config):
    return synthgen.make_signers(4, SEED, gen_config)


@pytest.fixture(scope="session")
def small_corpus(signers, gen_config):
    words = ["TULIP", "ROAD", "GEORGE", "QUIZ", "BOX", "JOE", "VENICE", "KATE",
             "SUN", "ART", "FERN", "CARL", "GLUE", "INK", "YARD", "ZEBRA",
             "QUEEN", "MARY", "TOM", "HELP", "MUSIC", "DOUBT", "JOB", "FEAR",
             "WINDOW", "PLANT", "XEROX", "LAMB", "SPICE", "WAFFLE"]
    return synthgen.generate_corpus(words, signers[:2], SEED, repetitions=2,
                                    cfg=gen_config)


def rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))
