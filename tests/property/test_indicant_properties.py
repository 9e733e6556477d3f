"""The shared extractors against their uncached twins."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.message import (extract_hashtags, extract_rt_users,
                                extract_urls, parse_message)
from tests import indicant_oracle as oracle

# Small pools, so one text repeats a spelling and texts share them, but
# large enough that a set's slots collide and its iteration order
# depends on the insertion order.
_NAMES = st.builds("{}{}".format,
                   st.sampled_from(["redsox", "RedSox", "REDSOX", "mlb",
                                    "Mlb", "swine_flu"]),
                   st.sampled_from(["", "1", "2", "09", "x"]))
_TOKENS = st.one_of(
    _NAMES.map(lambda name: "#" + name),
    st.tuples(st.sampled_from(["http://", "HTTPS://", ""]),
              st.sampled_from(["bit.ly", "Bit.LY", "t.co", "example.com"]),
              st.sampled_from(["/AbC", "/abc", "/x/Y", "/abc."])).map("".join),
    _NAMES.map(lambda name: f"RT @{name}:"),
    st.sampled_from(["go", "tonight", "rt", "@fan", "#", "win!"]),
)
_TEXTS = st.lists(_TOKENS, max_size=40).map(" ".join)

_EXTRACTORS = [(extract_hashtags, oracle.hashtags),
               (extract_urls, oracle.urls),
               (extract_rt_users, oracle.rt_users)]


class TestSharedExtractorsEqualTheOracle:

    @given(_TEXTS)
    def test_equal_values_same_order_one_object(self, text):
        for shared_of, oracle_of in _EXTRACTORS:
            shared, fresh = shared_of(text), oracle_of(text)
            assert shared == fresh
            assert list(shared) == list(fresh)
            assert shared_of(text) is shared

    @given(_NAMES)
    def test_author_name(self, user):
        first = parse_message(0, user, 0.0, "go")
        again = parse_message(1, user, 0.0, "go")
        assert first.user == oracle.user_name(user)
        assert again.user is first.user
