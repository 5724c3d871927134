#include "serve/http1.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "net/url.h"

namespace cookiepicker::serve {

namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHeadEnd = "\r\n\r\n";

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

// "close" / "keep-alive" mentioned in a Connection header value (which is a
// comma-separated token list).
bool connectionHasToken(const net::HeaderMap& headers, std::string_view token) {
  for (const std::string& value : headers.getAll("Connection")) {
    std::size_t start = 0;
    while (start <= value.size()) {
      std::size_t comma = value.find(',', start);
      if (comma == std::string::npos) comma = value.size();
      if (iequals(trim(std::string_view(value).substr(start, comma - start)),
                  token)) {
        return true;
      }
      start = comma + 1;
    }
  }
  return false;
}

bool defaultKeepAlive(std::string_view version, const net::HeaderMap& headers) {
  if (version == "HTTP/1.0") return connectionHasToken(headers, "keep-alive");
  return !connectionHasToken(headers, "close");
}

// Header block between `start` (first header line) and `end` (start of the
// blank line). Returns false on a malformed line.
bool parseHeaderLines(const std::string& buffer, std::size_t start,
                      std::size_t end, net::HeaderMap* headers,
                      std::string* error) {
  std::size_t pos = start;
  while (pos < end) {
    std::size_t eol = buffer.find(kCrlf, pos);
    if (eol == std::string::npos || eol > end) eol = end;
    const std::string_view line(buffer.data() + pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      *error = "malformed-header-line";
      return false;
    }
    headers->add(trim(line.substr(0, colon)),
                 std::string(trim(line.substr(colon + 1))));
    pos = eol + kCrlf.size();
  }
  return true;
}

// Content-Length, if present and well-formed. Sets *malformed on garbage.
std::optional<std::uint64_t> contentLength(const net::HeaderMap& headers,
                                           bool* malformed) {
  const auto value = headers.get("Content-Length");
  if (!value) return std::nullopt;
  if (value->empty()) {
    *malformed = true;
    return std::nullopt;
  }
  std::uint64_t length = 0;
  for (char c : *value) {
    if (c < '0' || c > '9') {
      *malformed = true;
      return std::nullopt;
    }
    length = length * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return length;
}

bool transferEncodingChunked(const net::HeaderMap& headers) {
  const auto value = headers.get("Transfer-Encoding");
  return value && iequals(trim(*value), "chunked");
}

}  // namespace

const char* requestKindName(net::RequestKind kind) {
  switch (kind) {
    case net::RequestKind::Container: return "container";
    case net::RequestKind::Subresource: return "subresource";
    case net::RequestKind::Hidden: return "hidden";
  }
  return "container";
}

std::optional<net::RequestKind> parseRequestKind(std::string_view text) {
  if (text == "container") return net::RequestKind::Container;
  if (text == "subresource") return net::RequestKind::Subresource;
  if (text == "hidden") return net::RequestKind::Hidden;
  return std::nullopt;
}

// ---- ChunkDecoder ----

ParseStatus ChunkDecoder::consume(const std::string& buffer, std::size_t& pos,
                                  std::string& body, std::size_t maxBodyBytes,
                                  std::string& error) {
  while (true) {
    switch (state_) {
      case State::Size: {
        const std::size_t eol = buffer.find(kCrlf, pos);
        if (eol == std::string::npos) {
          if (buffer.size() - pos > 20) {
            error = "malformed-chunk-size";
            return ParseStatus::Error;
          }
          return ParseStatus::NeedMore;
        }
        std::string_view line(buffer.data() + pos, eol - pos);
        const std::size_t semi = line.find(';');
        if (semi != std::string_view::npos) line = line.substr(0, semi);
        line = trim(line);
        if (line.empty()) {
          error = "malformed-chunk-size";
          return ParseStatus::Error;
        }
        std::uint64_t size = 0;
        for (char c : line) {
          int digit;
          if (c >= '0' && c <= '9') digit = c - '0';
          else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
          else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
          else {
            error = "malformed-chunk-size";
            return ParseStatus::Error;
          }
          size = size * 16 + static_cast<std::uint64_t>(digit);
        }
        pos = eol + kCrlf.size();
        sawChunk_ = true;
        if (size == 0) {
          state_ = State::Trailers;
        } else {
          remaining_ = size;
          state_ = State::Data;
        }
        break;
      }
      case State::Data: {
        const std::size_t available = buffer.size() - pos;
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining_, available));
        body.append(buffer, pos, take);
        if (body.size() > maxBodyBytes) {
          error = "oversized-body";
          return ParseStatus::Error;
        }
        pos += take;
        remaining_ -= take;
        if (remaining_ > 0) return ParseStatus::NeedMore;
        state_ = State::DataCrlf;
        break;
      }
      case State::DataCrlf: {
        if (buffer.size() - pos < kCrlf.size()) return ParseStatus::NeedMore;
        if (buffer.compare(pos, kCrlf.size(), kCrlf) != 0) {
          error = "malformed-chunk-terminator";
          return ParseStatus::Error;
        }
        pos += kCrlf.size();
        state_ = State::Size;
        break;
      }
      case State::Trailers: {
        const std::size_t eol = buffer.find(kCrlf, pos);
        if (eol == std::string::npos) return ParseStatus::NeedMore;
        const bool blank = (eol == pos);
        pos = eol + kCrlf.size();  // trailer fields are parsed and dropped
        if (blank) return ParseStatus::Ready;
        break;
      }
    }
  }
}

// ---- RequestParser ----

ParseStatus RequestParser::poll(ParsedRequest* out) {
  if (!error_.empty()) return ParseStatus::Error;
  const std::size_t headEnd = buffer_.find(kHeadEnd);
  if (headEnd == std::string::npos) {
    if (buffer_.size() > limits_.maxHeaderBytes) {
      error_ = "oversized-headers";
      return ParseStatus::Error;
    }
    return ParseStatus::NeedMore;
  }
  if (headEnd + kHeadEnd.size() > limits_.maxHeaderBytes) {
    error_ = "oversized-headers";
    return ParseStatus::Error;
  }

  ParsedRequest request;
  const std::size_t lineEnd = buffer_.find(kCrlf);
  const std::string_view line(buffer_.data(), lineEnd);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    error_ = "malformed-request-line";
    return ParseStatus::Error;
  }
  request.method = std::string(line.substr(0, sp1));
  request.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = line.substr(sp2 + 1);
  if (request.method.empty() || request.target.empty() ||
      (version != "HTTP/1.1" && version != "HTTP/1.0")) {
    error_ = "malformed-request-line";
    return ParseStatus::Error;
  }
  if (!parseHeaderLines(buffer_, lineEnd + kCrlf.size(), headEnd,
                        &request.headers, &error_)) {
    return ParseStatus::Error;
  }
  request.keepAlive = defaultKeepAlive(version, request.headers);

  std::size_t pos = headEnd + kHeadEnd.size();
  if (transferEncodingChunked(request.headers)) {
    ChunkDecoder decoder;
    const ParseStatus status = decoder.consume(
        buffer_, pos, request.body, limits_.maxBodyBytes, error_);
    if (status != ParseStatus::Ready) return status;
  } else {
    bool malformed = false;
    const auto length = contentLength(request.headers, &malformed);
    if (malformed) {
      error_ = "malformed-content-length";
      return ParseStatus::Error;
    }
    if (length) {
      if (*length > limits_.maxBodyBytes) {
        error_ = "oversized-body";
        return ParseStatus::Error;
      }
      if (buffer_.size() - pos < *length) return ParseStatus::NeedMore;
      request.body.assign(buffer_, pos, static_cast<std::size_t>(*length));
      pos += static_cast<std::size_t>(*length);
    }
  }
  buffer_.erase(0, pos);
  *out = std::move(request);
  return ParseStatus::Ready;
}

// ---- ResponseParser ----

ParseStatus ResponseParser::parseHead(ParsedResponse* out,
                                      std::size_t* headLen) {
  const std::size_t headEnd = buffer_.find(kHeadEnd);
  if (headEnd == std::string::npos) {
    if (buffer_.size() > limits_.maxHeaderBytes) {
      error_ = "oversized-headers";
      return ParseStatus::Error;
    }
    return ParseStatus::NeedMore;
  }
  if (headEnd + kHeadEnd.size() > limits_.maxHeaderBytes) {
    error_ = "oversized-headers";
    return ParseStatus::Error;
  }
  const std::size_t lineEnd = buffer_.find(kCrlf);
  const std::string_view line(buffer_.data(), lineEnd);
  if (line.substr(0, 7) != "HTTP/1.") {
    error_ = "malformed-status-line";
    return ParseStatus::Error;
  }
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || line.size() < sp1 + 4) {
    error_ = "malformed-status-line";
    return ParseStatus::Error;
  }
  const std::string_view code = line.substr(sp1 + 1, 3);
  int status = 0;
  for (char c : code) {
    if (c < '0' || c > '9') {
      error_ = "malformed-status-line";
      return ParseStatus::Error;
    }
    status = status * 10 + (c - '0');
  }
  out->status = status;
  if (line.size() > sp1 + 4 && line[sp1 + 4] == ' ') {
    out->statusText = std::string(line.substr(sp1 + 5));
  } else {
    out->statusText.clear();
  }
  if (!parseHeaderLines(buffer_, lineEnd + kCrlf.size(), headEnd,
                        &out->headers, &error_)) {
    return ParseStatus::Error;
  }
  out->keepAlive = defaultKeepAlive(line.substr(0, 8), out->headers);
  *headLen = headEnd + kHeadEnd.size();
  return ParseStatus::Ready;
}

ParseStatus ResponseParser::poll(ParsedResponse* out) {
  if (!error_.empty()) return ParseStatus::Error;
  ParsedResponse response;
  std::size_t pos = 0;
  const ParseStatus head = parseHead(&response, &pos);
  if (head != ParseStatus::Ready) return head;

  if (transferEncodingChunked(response.headers)) {
    ChunkDecoder decoder;
    const ParseStatus status = decoder.consume(
        buffer_, pos, response.body, limits_.maxBodyBytes, error_);
    if (status != ParseStatus::Ready) return status;
  } else {
    bool malformed = false;
    const auto length = contentLength(response.headers, &malformed);
    if (malformed) {
      error_ = "malformed-content-length";
      return ParseStatus::Error;
    }
    if (!length) return ParseStatus::NeedMore;  // EOF-framed: finishAtEof
    if (*length > limits_.maxBodyBytes) {
      error_ = "oversized-body";
      return ParseStatus::Error;
    }
    if (buffer_.size() - pos < *length) return ParseStatus::NeedMore;
    response.body.assign(buffer_, pos, static_cast<std::size_t>(*length));
    pos += static_cast<std::size_t>(*length);
  }
  buffer_.erase(0, pos);
  *out = std::move(response);
  return ParseStatus::Ready;
}

ParseStatus ResponseParser::finishAtEof(ParsedResponse* out) {
  if (!error_.empty()) return ParseStatus::Error;
  if (buffer_.empty()) return ParseStatus::NeedMore;  // dropped, no answer
  ParsedResponse response;
  std::size_t pos = 0;
  const ParseStatus head = parseHead(&response, &pos);
  if (head == ParseStatus::Error) return ParseStatus::Error;
  if (head == ParseStatus::NeedMore) {
    error_ = "premature-eof-in-headers";
    return ParseStatus::Error;
  }
  if (transferEncodingChunked(response.headers)) {
    ChunkDecoder decoder;
    const ParseStatus status = decoder.consume(
        buffer_, pos, response.body, limits_.maxBodyBytes, error_);
    if (status == ParseStatus::Error) return ParseStatus::Error;
    response.prematureClose = (status != ParseStatus::Ready);
  } else {
    bool malformed = false;
    const auto length = contentLength(response.headers, &malformed);
    if (malformed) {
      error_ = "malformed-content-length";
      return ParseStatus::Error;
    }
    const std::size_t available = buffer_.size() - pos;
    if (length && available < *length) {
      // The declared Content-Length header is preserved, so the bridge
      // delivers a body shorter than it declares — the truncation signal.
      response.body.assign(buffer_, pos, available);
      response.prematureClose = true;
    } else if (length) {
      response.body.assign(buffer_, pos, static_cast<std::size_t>(*length));
    } else {
      response.body.assign(buffer_, pos, available);  // EOF-framed
    }
  }
  response.keepAlive = false;
  buffer_.clear();
  *out = std::move(response);
  return ParseStatus::Ready;
}

// ---- serializers ----

std::string serializeRequest(const net::HttpRequest& request) {
  std::string wire;
  wire.reserve(256 + request.body.size());
  wire += request.method;
  wire += ' ';
  wire += request.url.pathWithQuery();
  wire += " HTTP/1.1\r\n";
  wire += "Host: ";
  wire += request.url.host();
  if (!request.url.hasDefaultPort()) {
    wire += ':';
    wire += std::to_string(request.url.port());
  }
  wire += "\r\n";
  for (const auto& entry : request.headers.entries()) {
    if (iequals(entry.name, "Host") || iequals(entry.name, "Content-Length")) {
      continue;
    }
    wire += entry.name;
    wire += ": ";
    wire += entry.value;
    wire += "\r\n";
  }
  wire += kKindHeader;
  wire += ": ";
  wire += requestKindName(request.kind);
  wire += "\r\n";
  wire += kAttemptHeader;
  wire += ": ";
  wire += std::to_string(request.attempt);
  wire += "\r\n";
  if (!request.body.empty()) {
    wire += "Content-Length: ";
    wire += std::to_string(request.body.size());
    wire += "\r\n";
  }
  wire += "\r\n";
  wire += request.body;
  return wire;
}

namespace {
void appendResponseHead(std::string& wire, const net::HttpResponse& response,
                        bool keepAlive) {
  wire += "HTTP/1.1 ";
  wire += std::to_string(response.status);
  wire += ' ';
  wire += response.statusText;
  wire += "\r\n";
  for (const auto& entry : response.headers.entries()) {
    if (iequals(entry.name, "Content-Length") ||
        iequals(entry.name, "Transfer-Encoding") ||
        iequals(entry.name, "Connection")) {
      continue;
    }
    wire += entry.name;
    wire += ": ";
    wire += entry.value;
    wire += "\r\n";
  }
  if (!keepAlive) wire += "Connection: close\r\n";
}
}  // namespace

std::string serializeResponse(const net::HttpResponse& response,
                              const ResponseWireOptions& options) {
  std::string wire;
  wire.reserve(256 + response.body.size());
  appendResponseHead(wire, response, options.keepAlive);
  if (options.chunked) {
    wire += "Transfer-Encoding: chunked\r\n\r\n";
    if (!response.body.empty()) wire += encodeChunk(response.body);
    wire += encodeLastChunk();
    return wire;
  }
  wire += "Content-Length: ";
  wire += std::to_string(
      options.declaredContentLength.value_or(response.body.size()));
  wire += "\r\n\r\n";
  wire += response.body;
  return wire;
}

std::string serializeChunkedHead(const net::HttpResponse& response,
                                 bool keepAlive) {
  std::string wire;
  appendResponseHead(wire, response, keepAlive);
  wire += "Transfer-Encoding: chunked\r\n\r\n";
  return wire;
}

std::string encodeChunk(std::string_view data) {
  if (data.empty()) return std::string();
  char size[32];
  std::snprintf(size, sizeof(size), "%zx\r\n", data.size());
  std::string chunk(size);
  chunk += data;
  chunk += "\r\n";
  return chunk;
}

std::string encodeLastChunk() { return "0\r\n\r\n"; }

// ---- bridges ----

net::HttpRequest toHttpRequest(const ParsedRequest& parsed,
                               const std::string& host) {
  net::HttpRequest request;
  request.method = parsed.method;
  if (parsed.target.rfind("http://", 0) == 0 ||
      parsed.target.rfind("https://", 0) == 0) {
    request.url = net::Url::parse(parsed.target).value_or(net::Url());
  } else {
    request.url =
        net::Url::parse("http://" + host + parsed.target).value_or(net::Url());
  }
  for (const auto& entry : parsed.headers.entries()) {
    if (iequals(entry.name, "Host") || iequals(entry.name, kKindHeader) ||
        iequals(entry.name, kAttemptHeader) ||
        iequals(entry.name, "Content-Length") ||
        iequals(entry.name, "Connection")) {
      continue;
    }
    request.headers.add(entry.name, entry.value);
  }
  if (const auto kind = parsed.headers.get(kKindHeader)) {
    request.kind =
        parseRequestKind(*kind).value_or(net::RequestKind::Container);
  }
  if (const auto attempt = parsed.headers.get(kAttemptHeader)) {
    request.attempt = std::atoi(attempt->c_str());
  }
  request.body = parsed.body;
  return request;
}

net::HttpResponse toHttpResponse(ParsedResponse parsed) {
  net::HttpResponse response;
  response.status = parsed.status;
  response.statusText = std::move(parsed.statusText);
  for (const auto& entry : parsed.headers.entries()) {
    if (iequals(entry.name, "Connection") ||
        iequals(entry.name, "Transfer-Encoding")) {
      continue;  // framing artifacts; Content-Length stays for truncation
    }
    response.headers.add(entry.name, entry.value);
  }
  response.body = std::move(parsed.body);
  return response;
}

}  // namespace cookiepicker::serve
