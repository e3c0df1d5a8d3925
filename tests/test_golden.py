"""Golden CLI outputs: exit code and stdout SHA-256 of `--no-cache` runs.

Every bundled document through ``certify``, the four knots through
``analyze``, the four corpus ``satellite`` requests and five ``oracle``
quotients, each in text and json.  Where the benchmark runs the same
request, the text digest is the one it checks in
``perfbench/expected.json``.  A refactor must leave every one of them
unchanged; a change meant to alter output re-records them.
"""

import hashlib
from importlib import resources

import pytest

from dslice.cli import main
from dslice.corpus import bundled_names

DATA = resources.files("dslice") / "data"


def _doc(name):
    return str(DATA / f"{name}.json")


def _argv(request):
    kind, *rest = request.split()
    if kind == "satellite":
        curve, companion = rest
        comp = _doc(companion) if companion in bundled_names() else companion
        return ["satellite", "--pattern", _doc("946"), "--infection", curve,
                "--companion", comp]
    if kind == "oracle":
        knot, n, m = rest
        return ["oracle", "--knot", _doc(knot), "--n", n, "--m", m]
    return [kind, _doc(rest[0])]


# request -> format -> (exit code, stdout SHA-256)
GOLDEN = {
    "analyze 946": {
        "text":
            (0, "e16946319acb1728ea7e41e16840b41f8a96006ff6bc5fb862c55eab4eb8ed3c"),
        "json":
            (0, "d35ffdf529e9646086444b8ed8833ccd3df6fe3362c1f0fc19459521f81cbc6b"),
    },
    "analyze figure8": {
        "text":
            (0, "88fac39def49be6da433d7eb2a9329a5ccde87b3c951cba8288ae18eeaa3f4d6"),
        "json":
            (0, "bff87587354eddba5dc7f442f5f6b21c8dcb60803a8295d186b0b07ca411cc15"),
    },
    "analyze trefoil": {
        "text":
            (0, "0ed195b141c763e7649b1ea5cf10028cbb349312656312c3906b5c82611181dc"),
        "json":
            (0, "2efcbc531b998038f697908624fd20204cc0640cea7e348e3d7afb0d93052667"),
    },
    "analyze unknot": {
        "text":
            (0, "ef73883c63068f6dc414bb936f1cd93e480ad4c8bd8afbe62678480182fe6dc2"),
        "json":
            (0, "4eb4bca5845441f4e25caf12df02a236cee4b92a1c9dfc199268e7628ee6b8e0"),
    },
    "certify 946": {
        "text":
            (0, "163d045982aba06f6359efe5caa7aced0ac7c0317ac99d6f587cafcea939e21f"),
        "json":
            (0, "1e500d9112aa62509440a0c2e961d9ca6b283a579296e5586a8c0ca63ee9521e"),
    },
    "certify figure8": {
        "text":
            (1, "23216ae967e98abbd8cbf35c4ff74583c4d54128d5e84776bba77cb1d141b8f3"),
        "json":
            (1, "979b30c5edd958d8c4aecb0f25dd28bdaf2b77e34598f177d65e90bcbfc68a12"),
    },
    "certify r-rr": {
        "text":
            (1, "df510eab74109c8343dbd7abe28e6b9cc54ec91874e3e124e1fd2ab7d0608e48"),
        "json":
            (1, "2502a7e77c5b12350566a6330ed25a7a3206846c90946ed31c1249565c8a065d"),
    },
    "certify trefoil": {
        "text":
            (1, "914533e48e89e47da3bef0d46624d96124ce81f3b6a93ce5b1143a6478727510"),
        "json":
            (1, "5ea2e8134a05d22e2f4b8bb3d9080c81a5258278f7bb6fa9ef25ef4c5d2ee056"),
    },
    "certify unknot": {
        "text":
            (1, "6879dab96c40e402b1097968fb6b8934c36dd1737c0f6522311459963e885767"),
        "json":
            (1, "aa78f449f62ea523e036da855f8fa5fdad08f77ddad742ab9becfdceae8ddfea"),
    },
    "oracle 946 2 3": {
        "text":
            (0, "c66d7cae596a11375c14f481f210c8a50c88ea735da0b93e052eed5f4b4407bb"),
        "json":
            (0, "4ba3abfdfe180946ca8b66b0998edcb3ffea4ee628f6e3aae842f80c28438346"),
    },
    "oracle 946 3 7": {
        "text":
            (0, "0dd5b64e7667f621f6718249899b5ff930fca9f5952847798d9230732cff0dac"),
        "json":
            (0, "d30c8acdb6f760ac8e7ff124a763bfdcc1a67cf36264dea2da52aa3285b1a8c8"),
    },
    "oracle 946 4 15": {
        "text":
            (0, "b119ed43c1a88ad9c9ee701c2d4eb98c254d109dd7a931c3ac82b57b95e1827e"),
        "json":
            (0, "9cc83182020d1b3c3416f1e9709fc1f252a38fbe2e8dd8d0431165629c3a0116"),
    },
    "oracle figure8 3 7": {
        "text":
            (0, "49b9f1aa47bcb6ff38b442139c2e768575a7847090a52cfbef9236bc4b010a39"),
        "json":
            (0, "f0c7f57d70df96aa2d6b3fbe1b0013f4126114aca93563bfb511c16eb6cc4e32"),
    },
    "oracle trefoil 4 15": {
        "text":
            (0, "5f98efa674084923866302cf132e50abd749821ba8f713467cd50000dce71438"),
        "json":
            (0, "84609110260893a708c49b3abadd14ef41b30144d2405af211f3a5778899ab00"),
    },
    "satellite eta1 any": {
        "text":
            (0, "85100469e56f1559ca65890c46703069887c91c1062e840ce099b0dcff705b26"),
        "json":
            (0, "8f22b78f55d3561bdda4dc48e86a08126734fca9ed10aaf010217e84791867be"),
    },
    "satellite eta2 any": {
        "text":
            (0, "bac4d3d53cda14484e45866c3144fb720193a815facc23da7738d69f8bc3c0f5"),
        "json":
            (0, "97bbd60c9454778b4fe79460ebd171d0d3f957311cb0551e2129d3eb55d08604"),
    },
    "satellite gamma1 946": {
        "text":
            (1, "269fe51354a6f31ca8d495e91f99764c42ec718a0a1622dbdb2ee11ae7d49281"),
        "json":
            (1, "e8db47b838a741da00a01c1767f32e73b51fe82f1c84cd799dfbe3812b18717a"),
    },
    "satellite gamma1 wh-symbolic": {
        "text":
            (0, "07d602d59ed41184c9eb50986171bc3b0c7b591eedcb1c7f1c4ad34c56b84bcd"),
        "json":
            (0, "952dd74f07dbe726af190df84c9d8a6037b68ad30c2b8037067b32e055a0d367"),
    },
}


@pytest.mark.parametrize("request_id,fmt", [
    (r, f) for r in sorted(GOLDEN) for f in ("text", "json")
])
def test_golden_output(request_id, fmt, capsys):
    code = main(_argv(request_id) + ["--format", fmt, "--no-cache"])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[request_id][fmt]


def test_golden_covers_every_bundled_document():
    assert {r.split()[1] for r in GOLDEN if r.startswith("certify")} == set(
        bundled_names()
    )
