"""The pickled stream a forked child of ``forking.child_stream`` sends."""

import io
import pickle

from jetmech.forking import _received
from jetmech.verify import CheckResult


def test_a_stream_cut_at_any_byte_gives_back_exactly_the_whole_results():
    # CSV blocks, one longer than a 64 KiB pickle frame, and suite results
    results = [
        b"",
        b"0,1.5,-2.25e-07\n" * 3,
        CheckResult("cochain contraction", True, "40 cases", 7),
        b"0.10000000000000001,-1e+300\n" * 2400,
        [CheckResult("split invariance", False, "case seed 12", 12)],
    ]
    stream = io.BytesIO()
    ends = []
    for result in results:
        pickle.dump(result, stream)
        ends.append(stream.tell())
    data = stream.getvalue()
    for cut in range(len(data) + 1):
        whole = sum(end <= cut for end in ends)
        pipe = io.BufferedReader(io.BytesIO(data[:cut]))  # reads as a pipe is read
        assert list(_received(pipe)) == results[:whole], cut
