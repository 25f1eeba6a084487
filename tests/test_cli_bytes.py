"""Byte-golden CLI output.

Every solve, lp and reduce command runs on three fixed documents; the
sha256 of its output document and of its audit trail is pinned, so a
refactor that changes a single byte of any of them fails here. Three
larger documents pin the simplex's vertex choice on LPs with many
degenerate pivots: a 29-edge gap line, a 29-node tree, and a CCIP whose
alpha-relaxed point takes two constraint-generation rounds.
"""

import hashlib
import random

import pytest

from fractions import Fraction

from priocover import (
    UNBOUNDED,
    ColumnRestrictedCIP,
    ZeroOneCIP,
    alpha_relaxed,
    document_for,
    serialize_document,
)
from priocover.cli import main
from priocover.plc import gen_gap_line

from conftest import rand_interval_ccip, rand_tree


def _mixed_ccip(rng, rows, cols):
    """Interval CCIP with half its columns unbounded; those tile the rows,
    so the program is feasible, and the bounded rest have bounds 3..8."""
    unbounded = cols // 2
    cuts = sorted(rng.sample(range(1, rows), unbounded - 1))
    spans = list(zip([0] + cuts, [c - 1 for c in cuts] + [rows - 1]))
    while len(spans) < cols:
        length = rng.randint(1, rows // 2)
        top = rng.randint(0, rows - length)
        spans.append((top, top + length - 1))
    order = list(range(cols))
    rng.shuffle(order)
    base = ZeroOneCIP(
        matrix=tuple(
            tuple(1 if spans[j][0] <= i <= spans[j][1] else 0 for j in order)
            for i in range(rows)
        ),
        demands=tuple(rng.randint(1, 100) for _ in range(rows)),
        costs=tuple(rng.randint(1, 20) for _ in range(cols)),
        upper_bounds=tuple(
            UNBOUNDED if j < unbounded else rng.randint(3, 8) for j in order
        ),
    )
    return ColumnRestrictedCIP(
        base=base, supplies=tuple(rng.randint(1, 32) for _ in range(cols))
    )


DOCUMENTS = {
    "line": lambda: gen_gap_line(11),
    "tree": lambda: rand_tree(random.Random(11), max_nodes=9, unit_cost=True),
    "ccip": lambda: rand_interval_ccip(random.Random(12), no_bottleneck=True),
    "gap29": lambda: gen_gap_line(29),
    "tree29": lambda: rand_tree(random.Random(0), max_nodes=32, max_extra=12),
    "ccip2": lambda: _mixed_ccip(random.Random(1), 8, 12),
}

# (document, command, has --audit) -> (sha256 of output, sha256 of audit)
GOLDEN = {
    ("line", "solve plc-exact", True): (
        "bc98ca518039ebd0c3988eedcf69ac1812e046cc9e61a1ab8ce08ecf0f53c8ad",
        "3b73166e7a5790b8b7e214a23ba2ade32dc4dd85b195e1816926f9b544a74107",
    ),
    ("line", "solve plc-pd", True): (
        "bc98ca518039ebd0c3988eedcf69ac1812e046cc9e61a1ab8ce08ecf0f53c8ad",
        "57011ddc5ddef6f51ab58333d3c429b310b9849e7b68ef92752efb0b884ab8e0",
    ),
    ("line", "lp solve", True): (
        "e7264cc8ce655e9e07cef86dc95b58e4fc8b568dcfa47eb6c9268dae0bef7aca",
        "2b951558025aaa7555c2023c5133ef1fc7649a85ae306122ac7d503f8cce8212",
    ),
    ("tree", "solve ptc-2apx", True): (
        "242b876a4dc03a65e548a591c0209b241168f232828092f9f915935c8709993f",
        "1fa943dcf364dfdcd4a9187ada9e954df1c8cb93cae1218dbe18c9901fbd037a",
    ),
    ("tree", "solve ptc-unw6", True): (
        "242b876a4dc03a65e548a591c0209b241168f232828092f9f915935c8709993f",
        "d26bc95ead608ee49647090176fb537bcbe38966c4313db76c788fe56c8ac36b",
    ),
    ("tree", "solve tree01", True): (
        "6ed0fe82d1a0d6f49fd8308c010704bd25084674a40fc3530ef5388ac18b5fdd",
        "d78d645fee2cba6d2a4595fe360fa9bff463d18d254e0065089603c70a28bc43",
    ),
    ("tree", "lp solve", True): (
        "242b876a4dc03a65e548a591c0209b241168f232828092f9f915935c8709993f",
        "67cdaccc9a032d0245400b835d4c0e5357569224ef5e691b2c2e58323f29c918",
    ),
    ("tree", "reduce ptc-to-2plc", False): (
        "4436ca982017594188b68813c5d25101a1b1b4f3a9992cb11b4e34dbb4c87d66",
        None,
    ),
    ("tree", "reduce 2plc-to-rect", False): (
        "0092cace0b299b856a68727e1932cb4e57c52deecfcf510bf98cefc36e5ae385",
        None,
    ),
    ("ccip", "solve ccip", True): (
        "66fcb51cdafe16e77bb90cb134f86995ab495820a30cbf48efedfd9b23fe6d03",
        "e848ee3116dc625e7bce872fec7d7ceea3c7dc0567c26c30b2da528192477e27",
    ),
    ("ccip", "solve ccip-nokc", True): (
        "545a85df93b0e7878c33884a96d77f292480a115c2fd5456362d6006a98ea04f",
        "37b7063a02f16c9b4103457a6db84721740b9b898e472b0e289e4a637fdd3169",
    ),
    ("ccip", "lp solve", True): (
        "f339651dcf950dffcbcbc3908c288f9e559c63e17c45f7f1fa568312d5dae831",
        "0b023295732d692babc19b7567457eea076d5f336ce5365cb50748b79c86752c",
    ),
    ("ccip", "lp alpha-relaxed --alpha 1/2", True): (
        "f339651dcf950dffcbcbc3908c288f9e559c63e17c45f7f1fa568312d5dae831",
        "f3be11e0e56e1c7fe1305e1d1444867ebc90248551038eb161d829f0700453ed",
    ),
    ("gap29", "lp solve", True): (
        "246dac7ff015dadc28a3a8422bbbe06db41791a357031eee9cf89d6e1b326bce",
        "84ff2158791b43c980f16efd887a9c29c80648f049c7bb60117324ed34fb8687",
    ),
    ("tree29", "lp solve", True): (
        "3ecaa668041c0186523658fe81a05032f60a2f962424a2b491acc673b052f54c",
        "b5ccd9e7aaa47b68dbc2b5d4994f8572e36b5cbc20594570b88c7f078a590de9",
    ),
    ("ccip2", "solve ccip", True): (
        "ca860617969e701a82f51bac3705e89400e8d1cd282e5507d6db97dca22d7c25",
        "71d7a9f4630755ecb75285f2c0d4bc4438eafa4a803deea1e483981e4c9ef6b7",
    ),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path, doc_path, argv, audit):
    out = tmp_path / "out.json"
    cmd = argv + ["--in", str(doc_path), "--out", str(out)]
    trail = tmp_path / "audit.json"
    if audit:
        cmd += ["--audit", str(trail)]
    assert main(cmd) == 0
    return out, (trail if audit else None)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "%s:%s" % (k[0], k[1]))
def test_cli_bytes_pinned(tmp_path, key):
    doc, command, audit = key
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(serialize_document(document_for(DOCUMENTS[doc]())))
    if command == "reduce 2plc-to-rect":
        # runs on the tree's two-priority image
        image, _ = _run(tmp_path, doc_path, ["reduce", "ptc-to-2plc"], False)
        doc_path.write_bytes(image.read_bytes())
    out, trail = _run(tmp_path, doc_path, command.split(), audit)
    got = (_sha(out), _sha(trail) if trail else None)
    assert got == GOLDEN[key]


def test_larger_documents_are_what_they_pin():
    tree = DOCUMENTS["tree29"]()
    assert len(tree.parent) + 1 == 29
    # round_ccip's alpha; the golden covers a second generation round
    assert alpha_relaxed(DOCUMENTS["ccip2"](), Fraction(1, 24)).iterations == 2
