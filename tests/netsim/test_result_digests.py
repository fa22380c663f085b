"""Whole-result digests of exact and hybrid runs.

Every single-body gallery scenario runs at its own duration, seed 0, on
both the exact kernel and the hybrid macro-tick path, and one 8-body
E18 crowd room runs per MAC policy.  Each run is reduced to the SHA-256
of its canonical JSON ``SimulationResult.to_dict()``, so any change to
event order, sequence claims or float addition order anywhere in a
result shows up here.

These pins cover exact paths no ``float.hex`` golden covers: hub
polling, FIFO with battery nodes, and lossy FIFO with battery nodes
whose attempts, losses and low-battery throttles all land mid-run.  A
deliberate behaviour change must regenerate the digests (run each case
and print ``result_digest``) and say so in its change description.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.control import ControllerSpec
from repro.experiments import crowd
from repro.scenarios.environment import BodyPlacement, EnvironmentSpec
from repro.scenarios.registry import get_scenario

#: ``scenario/fast_path`` -> SHA-256 of ``SimulationResult.to_dict()``
#: (seed 0, each scenario at its own duration).
GALLERY_DIGESTS = {
    "barefoot_yoga/exact":
        "60b14609762f64f0e024454823b173a8c99a1ccdde31c52ebc005b3f9f91c8d5",
    "barefoot_yoga/hybrid":
        "1198bb4551457706bbb0d515e23ac55be7e930e195bc095503d75229403e4723",
    "clinical_ward/exact":
        "89f2dded1665d6bac7793c2334fae1f45a19a41f2e8b84eae9fc146b21b6fc6d",
    "clinical_ward/hybrid":
        "f6655b640eb276cb4b435b67dd075f7ff63178418491cf9b99c1c4bd82ee3c07",
    "coded_ward/exact":
        "3af7f34e5141b5a93aca3f3f1c7385462854e2e21c7a1025df971356688c3222",
    "coded_ward/hybrid":
        "a316a085c0d913f3ebf35824b53b0f52c10e393182eb01695e5f7f08d449d365",
    "commute_walk/exact":
        "5ae78137f22ff468513d8beb50f749e01299d1fd4fae2ffb7dcbe72cc44eb2aa",
    "commute_walk/hybrid":
        "134e14ef6131062e9590e5ad7f9b8ff5113f1aaa9d6f340ce68360568d415d5b",
    "dense_50_leaf/exact":
        "77347c3095e1569c9a6064f8bbb928a01417933759ba558982f7482643f69401",
    "dense_50_leaf/hybrid":
        "9c0fc7c783b1223c5938e8c9b00a5a9123d839ea9dbbbbac6ae4d06b737d2630",
    "harvester_patch/exact":
        "5221e421a9d9350e766b536cdecb3126214f475689534abcbbc403e7525f1976",
    "harvester_patch/hybrid":
        "f969096c3486053f8baf1f88321939df3de1b525df5c033027a2265b46a23dfa",
    "implant_mix/exact":
        "37845d4bf2b7c4cf606175975199fd200810a18632575a8fc465bb30df6805c6",
    "implant_mix/hybrid":
        "37845d4bf2b7c4cf606175975199fd200810a18632575a8fc465bb30df6805c6",
    "legacy_ble_island/exact":
        "1560f5aedd066d160a7a91cd7ca61beda395773198830bc44b9523162cf42ac3",
    "legacy_ble_island/hybrid":
        "1560f5aedd066d160a7a91cd7ca61beda395773198830bc44b9523162cf42ac3",
    "noisy_ward/exact":
        "4b03b23e3de527bf191b9e40d4aeaecec3f590c08dcf915ece341cf0dca86dba",
    "noisy_ward/hybrid":
        "578c806a0d94a783953add7192cc1416e96dfc27fdd484a2e99bb8ac6190e393",
    "sleep_night/exact":
        "bf650376df980e6a7193f4b00916d82a43a2375fce92d1e612aa9e4c509eaa18",
    "sleep_night/hybrid":
        "f592d94d79e7ca52b405e21e74eda158136a49ce865ea0285fc0b75dfc68bbeb",
    "week_wear/exact":
        "da9e6c68c403d1fe834b022f742f067bfb572d9a15ba8aac66174c62d073600f",
    "week_wear/hybrid":
        "72fb936f7f54bffd6da192c95d2fc1556d82700e61809ea3b4641bb1bc1dd5b6",
    "workout/exact":
        "328e1c9db7aef3be6178e2c6973f6f839e746582ded0edd1ae56e8bc92bf42b5",
    "workout/hybrid":
        "5b99b844157491247942bad9ad045766c8a1523b7dad57b7959114035d9d7c7c",
}

#: MAC policy -> per-body digests of one 8-body E18 room (seed 0).
CROWD_DIGESTS = {
    "fifo": (
        "a28372390a2366e7c87f9aa8ac283dc162db1e40e669078b14eddfecfb2dcca8",
        "8749cf2a2c8ab5a8b0b452cd23385e1846d90bc9bf63c14588bbe7eb5b6460e7",
        "44c48b7cba1a71ffea065b7c060c5a5a4a2cf993db758c196cafd533ced12fbb",
        "69b3f1d472a65d6be90a6aeadb2fdc77902b992097c3a9ece3f01624452ee9ef",
        "b3e7ededb7fae4e649f441996b8ce2df237e8b537f7006b8ec88441c4a7ae601",
        "cee962a94f30b721814a40031a5dfca78680f633e9f58707331c72db296fa3a0",
        "850ef910ef83656a705abc2eeda4b16ea2aad6308ea0f657a8bcba08dfa346d0",
        "71c220e7ed93bdf8929be49eab01865d73c9565d9cdc50b8a4954387a0937585",
    ),
    "tdma": (
        "761b1bed5154ebbecfada297ef33e011b08c92dfe2b6e0221ee3338578896f10",
        "03e102e99464e9917aed38bbaf62f887c86429764f7e7f69107fae013908e410",
        "05847eca4e191af5ba842aad0d2958bc7d25e1b43580427747bfa83875471708",
        "e5d3ba0607d7efadd71d2e32f3ffe1b2a5baa9913298f3e1d24e15c487a3e066",
        "9f58d20662e0f8106e04142768849bfedc15f4e855baaf7b86a840f328b30388",
        "75077c405b702f82132258449478c257e54763a253efa768342f9c55df380fb6",
        "5ad6041a0a4d00565ce2fd22f8b58b0d91a2c3f630246c1adbfcf9d7bf1c90f9",
        "3c1b168e352482f1bdbc236a79b5c75268ff12628350c2e6b13b10d0bd4af6dd",
    ),
    "polling": (
        "18199b85d4f8058042309faaf54a7f95a28aeb7df25611cf68919e64449a6fad",
        "0bd1b3dd1d9b7ffe6ac1c32ab7f97bf9e4dcec74e80f6139936ba60bc70c60e7",
        "ce9fa19f1328f90029a3cb5aa2a7107a60efb130ef9abfa2b2a8fc49e35b3ed6",
        "d32fc2d8b597bc74b45ef79e6608dcbd47fad3b38fd2ecbcce70caf670de2219",
        "7b55db79cf24fa90a853058e13d105bda94bbbb058dc883cb43409f8d1e2493c",
        "34b0e22804802d35fc50a69281c4611bc876f7664ac6081aebc7c16826b6db47",
        "8bf38ead948846bec46fce73444a9e4afaf2ef23359f03113664a2aabe10d2e6",
        "8c0b6e81674c819c3c5fcbe0dc92c8bbc63cb1cb8f116b25ab68516b77debfeb",
    ),
}

def result_digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GALLERY_DIGESTS))
def test_gallery_digest(case):
    name, fast_path = case.split("/")
    result = get_scenario(name).run(seed=0, fast_path=fast_path)
    assert result_digest(result.simulated) == GALLERY_DIGESTS[case]


def crowd_room(mac_policy: str) -> EnvironmentSpec:
    """The fullest E18 sweep room (8 bodies, PER-backoff controllers)."""
    spec = crowd._body_spec(mac_policy, crowd.DEFAULT_DURATION_SECONDS)
    return EnvironmentSpec(
        name="e18_room_8",
        description="E18 sweep room with 8 bodies",
        bodies=(BodyPlacement(
            scenario=spec, count=8, name="member",
            controller=ControllerSpec(kind="per_backoff",
                                      cadence_seconds=5.0)),),
        spacing_metres=crowd.DEFAULT_SPACING_METRES,
        rf_reference_loss_db=67.0,
        rf_path_loss_exponent=2.0,
        eqs_leakage_fraction=6e-4,
    )


@pytest.mark.parametrize("mac_policy", sorted(CROWD_DIGESTS))
def test_crowd_room_digests(mac_policy):
    result = crowd_room(mac_policy).build(seed=0).run()
    digests = tuple(result_digest(body) for body in result.body_results)
    assert digests == CROWD_DIGESTS[mac_policy]
