"""CLI output pinned byte for byte.

Each digest is the sha256 of the stdout of `mfvc.cli.main` for one command
and spec.  Any change to the JSON or DOT a command writes fails here; a
change meant to alter output records the new digests with it.
`transport-verify` is left out: its float text can differ across libm
builds.
"""

import hashlib

import pytest

from mfvc.cli import main

PINNED_DIGESTS = {
    ("loop", 3, 3, "homtable"):
        "db23bf832222db9c7389e35c3c0ba66cb6246f185764ce2276434034e7f21884",
    ("loop", 3, 3, "mirror-check"):
        "006157ba822891bdd714704dc105e4de166b0685e91e26eeca0fbd5f208897ed",
    ("loop", 3, 3, "quiver --side both"):
        "2cfdae9919528261c7eca159de4c64f35d1899ed0bf20ed9fa74f940e46c82a1",
    ("loop", 3, 3, "quiver --side A --format dot"):
        "b4d2d3e546528efb1dda05ec9cfa33d69aadc6cf532f9fcc778dae02bdf54da6",
    ("loop", 3, 3, "quiver --side B --format dot"):
        "e90671676d92e65e162677ea72adb983d737b83cda99d821ad85aab97aa1863d",
    ("loop", 3, 3, "invariants"):
        "06cf2cc132b18d9866824d912484d8bdd83e6ec86f40b232ac77f4ee186eb4fc",
    ("loop", 3, 3, "signs --seed 3"):
        "f32ed8b34c2283eaf9010d3ca1d35058f7697980d79c24c6c7306dbbc22da482",
    ("loop", 3, 3, "milnor --format json"):
        "d642ac10439a1690dc3a3f183bb18fc52ea7e7ab3b07a83306d220f8914bcc3f",
    ("chain", 4, 5, "homtable"):
        "0bcafce54ca340c3dc0694bf6baba13ad64bd48bb25bb5489d6ceaaf9f9bace2",
    ("chain", 4, 5, "mirror-check"):
        "4b930e741c38af89fc596b531cf31e2a2b6ec8d8f4cca771959e6fd099f6a413",
    ("chain", 4, 5, "quiver --side both"):
        "e088df7ca9529ee292d88a91d35663a4f2680c7f08b2886116b02af0b85fa5a3",
    ("chain", 4, 5, "quiver --side A --format dot"):
        "67bfc0fca5dcdc58803650732d0aeba263c3e4e76228a4b15baf761d7dcb3e31",
    ("chain", 4, 5, "quiver --side B --format dot"):
        "ee408ae9671bdb8bfbfc20b41ae53810c5802c36fed04e75accf7b09ba08a60b",
    ("chain", 4, 5, "invariants"):
        "ed61efff78ea6426556137235a360272063316690b9f433e0970a00f8f849be5",
    ("chain", 4, 5, "signs --seed 3"):
        "6617ccf3d99da3630245945962598b8cc959285a4c9e4e3a6282a12d41b0c4ca",
    ("chain", 4, 5, "milnor --format json"):
        "f572dade14031657f26ac32ccefacc8187b29ced6be08b14132f115ebe086005",
    ("bp", 5, 3, "homtable"):
        "bdc29b44e0561eaacf133d24b8ff45c9dea72c5bdffae1f73f194dc679ae2748",
    ("bp", 5, 3, "mirror-check"):
        "14da8eea674a66f750731ade8ec780de7c4ad60de2aeec0e7495edee9aabda33",
    ("bp", 5, 3, "quiver --side both"):
        "a6727b78f55a311db0ce27d8ffd3ccd94a30334942699258ba4e36cce290727b",
    ("bp", 5, 3, "quiver --side A --format dot"):
        "f14c7ea914e1384ef22dea38b7050ce3a8e34dad4a4af192301881f80c6d2f7a",
    ("bp", 5, 3, "quiver --side B --format dot"):
        "c8c44039da71ade060416bfba8c948b89078ed61229a167ecdb3625ddab10b7a",
    ("bp", 5, 3, "invariants"):
        "dab2e9ed3dd7517b9b2baf3b0cc695ed953e46467c7db4d61cb4786e01ce0ad8",
    ("bp", 5, 3, "signs --seed 3"):
        "60ae9cc0b57e5b7baa9f728656e09ef183ecdfd2931be78a1d0612dbfecf88a6",
    ("bp", 5, 3, "milnor --format json"):
        "c1afcbe3c9544c9d5bcdcd99f901269bb0f3dbacffbbd0f90cc7a6037ec2978e",
    ("loop", 2, 4, "homtable"):
        "a9887eae17a4ac43c47f2e5c1c328aaf51a44d3b16e84035a5191d7c4ff09866",
    ("loop", 2, 4, "mirror-check"):
        "075f002aadc190f5ccffc54333cb4bc9ce7b4d139d46acde8f622d2d3600556d",
    ("loop", 2, 4, "quiver --side both"):
        "d543102e56d9a7e1778211dbcb2077adda812ae3595034eaefec00c57a5e0ca7",
    ("loop", 2, 4, "quiver --side A --format dot"):
        "e8f9dd09f2f9d6a8c3ab7292b5afd1ce8cf47881405157e7aad5b8a070810307",
    ("loop", 2, 4, "quiver --side B --format dot"):
        "1b75d9af6368f3b439045eb0101440dfb73d43cfef04f6ba4ed36bfa18118718",
    ("loop", 2, 4, "invariants"):
        "92c1a42d748f0b56d11b2a4b152c2e33f5efcdfd94ed368c31158a70c30e87d8",
    ("loop", 2, 4, "signs --seed 3"):
        "13e3a8f10dc16cc0664281510224b79ddf19d3c891956f7d4512b179e978c4bd",
    ("loop", 2, 4, "milnor --format json"):
        "a036ab90cff8aad68480d8fe56bd616811ea8499783bf00c1eb155a87b70126e",
    # bp with gcd(p, q) > 1: torsion in L and a two-factor L/Zc
    ("bp", 4, 6, "invariants"):
        "e3512ee323b38a258c49859735840c2ea7368b10763ee77c93c96dfc3166cdad",
    ("bp", 4, 6, "quiver --side both"):
        "60b464be0152f10399697d9f6ea061684208c8b3c0cb0d3f70401ad0a877ff8a",
    # hom tables whose targets have torsion in L: class representatives of
    # modules shifted by elements of finite order
    ("bp", 4, 6, "homtable"):
        "0b129cc64b00a4273534ebf2ae3ad0777c44a259928e0c9f6cd5b99f01f694f1",
    ("loop", 7, 4, "homtable"):
        "c69de1738953bd72c602e14eb87065fc261fe26f2cefb8c3b47f169de572c2ba",
    # non-default windows: which cells the hom table computes depends on
    # the window, so both a narrower and a wider one are pinned
    ("loop", 3, 3, "homtable --degree-window 0"):
        "b15e340d35e1f50f07b6ee3e3f21a72348e65f011e587d1d18116e67def0a798",
    ("loop", 3, 3, "homtable --degree-window 9"):
        "29b24bace9d8a9d27942412d54435eae6a2a0ef181399af3b8dfbcc27b82035e",
    ("chain", 4, 5, "homtable --degree-window 0"):
        "9fa26ab4a9e81c7de186d752c53f527e5787d5957928db3c5ddc929531e7acc1",
    ("chain", 4, 5, "homtable --degree-window 9"):
        "531b5815381cd0f9d9cdcce79a3f0798bb711df3ef5f579012c169fc092eecf5",
    # the wider window at sizes where most cells are decided by ranks
    # alone and only the nonzero rows build representatives
    ("loop", 10, 10, "homtable --degree-window 9"):
        "f08be9bb7e0cd34cfce1dd62bc3df365e8bb8f9e2582ce6ff518c743e44ef638",
    ("bp", 12, 8, "homtable --degree-window 9"):
        "7980613dc99587886c6ec690e642e2b3f5114956045e626962ec5bd1deb4e338",
    ("bp", 5, 3, "mirror-check --degree-window 0"):
        "14da8eea674a66f750731ade8ec780de7c4ad60de2aeec0e7495edee9aabda33",
    # the A side at p = 2, q = 2 and a skewed bp shape: schedule, fingers,
    # intersections and the A-side quiver
    ("chain", 2, 5, "invariants"):
        "711bdc3a89378c18822a9b07d5e4fc7f3f02d8dc0be880df0ebfcd4b89be9d04",
    ("chain", 2, 5, "quiver --side A --format dot"):
        "63c62b01882d4f12641356b53ead4a8c5438111320ccc4542c0f6d86b39bacec",
    ("loop", 6, 2, "invariants"):
        "b3f4168caed2959866aace17c778cc05af64729553beeb9056ad8611be987282",
    ("loop", 6, 2, "quiver --side A --format dot"):
        "a2a42c58a28e40c8d95ae9c407d45b3bd9a94005754409715632adbf949ad02f",
    ("bp", 7, 4, "invariants"):
        "6ddfb1a91cb5025b5f8eb19bd0a3a5d640f0a30895d4bdf12fa716fa09129ee8",
    ("bp", 7, 4, "quiver --side A --format dot"):
        "806922d4500a266e1e099b8fdea69b490a126dbc33078a05b79584d955b5addf",
}


@pytest.mark.parametrize("family,p,q,command", sorted(PINNED_DIGESTS))
def test_cli_output_matches_pinned_digest(family, p, q, command, capsys):
    code = main(command.split() + ["--family", family, "--p", str(p), "--q", str(q)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[(family, p, q, command)]
