"""Byte-golden CLI output.

Every solve, lp and reduce command runs on three fixed documents; the
sha256 of its output document and of its audit trail is pinned, so a
refactor that changes a single byte of any of them fails here.
"""

import hashlib
import random

import pytest

from priocover import document_for, serialize_document
from priocover.cli import main
from priocover.plc import gen_gap_line

from conftest import rand_interval_ccip, rand_tree

DOCUMENTS = {
    "line": lambda: gen_gap_line(11),
    "tree": lambda: rand_tree(random.Random(11), max_nodes=9, unit_cost=True),
    "ccip": lambda: rand_interval_ccip(random.Random(12), no_bottleneck=True),
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
