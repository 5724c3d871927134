// Lenient HTML tree construction — the reference tree builder.
//
// Converts the token stream into a dom::Node tree, tolerating the malformed
// markup that is ubiquitous on the web: missing <html>/<head>/<body>,
// unclosed <p>/<li>/<td>, mis-nested end tags, void elements written with or
// without '/'. Section 3.2 of the paper requires that both the regular and
// the hidden copies of a page go through the *same* parser so malformed
// pages are normalized identically. Production runs that parser as
// html::StreamingSnapshotBuilder, which never builds nodes; this builder
// applies the same placement rules to a node tree, and the differential
// suites pin the two against each other.
#pragma once

#include <memory>
#include <string_view>

#include "dom/node.h"
#include "html/stream_snapshot.h"

namespace cookiepicker::html {

// Parses HTML text into a document tree. Never throws on malformed input —
// every byte sequence produces *some* tree, deterministically. Whitespace-
// only text between structural elements is dropped, as layout engines
// effectively do outside whitespace-preserving contexts.
std::unique_ptr<dom::Node> parseHtml(std::string_view input);

// The page info StreamingSnapshotBuilder collects in its pass, walked out
// of a parsed tree instead: the first <base href> and the subresource
// references in preorder.
StreamPageInfo collectPageInfo(const dom::Node& document);

}  // namespace cookiepicker::html
