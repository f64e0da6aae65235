"""Every scenario recipe, pinned by the sha256 of its CSVs.

Each file under ``scenarios/`` runs its whole matrix at a reduced frame
count, with the packet trace on and ``--drop-expired`` off and on.  At 120
frames the post-warm-up region holds one full 1000 ms window, so every
``timeseries.csv`` has rows.  Output may change only with a bug fix that the
change log names, together with these digests.
"""

import hashlib
from dataclasses import replace

import pytest

from conftest import SCENARIOS, recipe
from uplinksim.cli import run_matrix, write_outputs

FRAMES = 120

RECIPE_DIGESTS = {
    ("baseline-4ss", False): {
        "summary.csv":
            "b1a4f8cdfa6e065bc9ca3464df3840b40362dbb9ca521671b2e2236cf63fa462",
        "timeseries.csv":
            "6c5c9ffd6fe6ced7e0f13e77f751ac2a9903c295b846bce14170bbd84d0c87ff",
        "packets.csv":
            "fdadbe631e52d6367669c200a9661d271f00e9813d355f0dbda8718be427610f",
    },
    ("baseline-4ss", True): {
        "summary.csv":
            "064f5783c72ae9b3acae0406c06bf750a635f06ff157aa652b3b63582738fa7e",
        "timeseries.csv":
            "9afade6777c456f4f801b4ef040b1501d6021679ff1712a97179e2d19e66d239",
        "packets.csv":
            "85e38f8d443868e1778e0db6ee5dcc2028f319fd296b04160cea8b5cd0ae0cbf",
    },
    ("fig2-delay", False): {
        "summary.csv":
            "99c613ff556fd41f3767c4a46531394c9d8d4c37077ffe53ff0da8463268db24",
        "timeseries.csv":
            "f797aa08b72c6b3c2103b47f05e4e9d7c68784c18ee0676ce49fc094722a03b6",
        "packets.csv":
            "f8b06909a84f2f4b5633d49ce1be944543f890a63ff3883a1d38b86f4363425b",
    },
    ("fig2-delay", True): {
        "summary.csv":
            "8ee4bdecfb5ba05213cdef6632033c0967e21eb66b936b3bfe9328cef5e155f9",
        "timeseries.csv":
            "8672af651e009764e52d0dccd1f5f84225cc770f5c269c8477fdac20611cb286",
        "packets.csv":
            "854d05a091f87efa43e48bc4581edfce03510de2f406514b2f9a8a179816dbf1",
    },
    ("fig4-violation", False): {
        "summary.csv":
            "e480f4be39399331c6ad1d0100456a2112507e4fae911bb912aff9cef735b561",
        "timeseries.csv":
            "0da94262453a6f3ea62c1bea5d75bbf0fcd6c4c535167d53786f05e6bc74e29a",
        "packets.csv":
            "4772d3b1ba67ff64cbdb8612e64c310aaadc76148492905fa44374b3a10b456a",
    },
    ("fig4-violation", True): {
        "summary.csv":
            "1a2927bb5bd932d22e5b80a9b87fbf26c4ef1b54c640cf340f44ac2ad6e2ca77",
        "timeseries.csv":
            "675b633866d4835a919865dbf92873ae3dfed1ae53866d62ab73859ac441cd88",
        "packets.csv":
            "3e8d22c25f8756621b70ee88978e7afdb995921ce73df8bdc993642337f66ea5",
    },
    ("fig5-fig6-throughput", False): {
        "summary.csv":
            "8ab99b64ec1ab29fa75603d755953ff80e9abe48dc0db43a16293006aeb04312",
        "timeseries.csv":
            "0f49d2f3901fe040260dc286fd290fe15d2ead0db142d6811e068d827a9b4d58",
        "packets.csv":
            "40504659f6839b67690254500a23ab391ca6a8a3d8276a51e04039e5bac3a0dd",
    },
    ("fig5-fig6-throughput", True): {
        "summary.csv":
            "8ab99b64ec1ab29fa75603d755953ff80e9abe48dc0db43a16293006aeb04312",
        "timeseries.csv":
            "0f49d2f3901fe040260dc286fd290fe15d2ead0db142d6811e068d827a9b4d58",
        "packets.csv":
            "40504659f6839b67690254500a23ab391ca6a8a3d8276a51e04039e5bac3a0dd",
    },
    ("fig7-fig8-utilization-jfi", False): {
        "summary.csv":
            "a16517644456936d12712209e91abef42617ae31e21485dfb2cab9bc1a6f9014",
        "timeseries.csv":
            "ff18b0bdef9074d90e7b3989e6f86f160ecd5c7cee6883ac4657fc6fac9d7161",
        "packets.csv":
            "9647c024fd7c9df3f287f2b07aaaf82e13a64ac8f2c17efdc489da32a00df168",
    },
    ("fig7-fig8-utilization-jfi", True): {
        "summary.csv":
            "eae2a161e2989bc06760b3819a5eac21e88eebe406e32d328acd6f6c9d62ef95",
        "timeseries.csv":
            "513ad0d7b2aedb6b46d921c090dbd9860f5c27c8240144c6b0b5352ae7604496",
        "packets.csv":
            "9ec428e42cc8aaeaefe3e2b79ca8c48becaea5a4aac03ab4facc80ea2f8e85b7",
    },
}


def test_every_recipe_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.cfg")) == sorted(
        {name for name, _ in RECIPE_DIGESTS})


@pytest.mark.parametrize("name,drop_expired", sorted(RECIPE_DIGESTS))
def test_recipe_outputs_match_pinned_digests(name, drop_expired, tmp_path):
    cfg = replace(recipe(name), frames=FRAMES, trace=True,
                  drop_expired=drop_expired)
    results, errors = run_matrix(cfg)
    assert not errors
    written = write_outputs(results, cfg, tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in written}
    assert digests == RECIPE_DIGESTS[(name, drop_expired)]
