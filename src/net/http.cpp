#include "net/http.h"

#include "util/strings.h"

namespace cookiepicker::net {

void HeaderMap::add(std::string_view name, std::string value) {
  entries_.push_back({std::string(name), std::move(value)});
}

void HeaderMap::set(std::string_view name, std::string_view value) {
  remove(name);
  add(name, std::string(value));
}

void HeaderMap::remove(std::string_view name) {
  std::erase_if(entries_, [&](const Entry& entry) {
    return util::equalsIgnoreCase(entry.name, name);
  });
}

std::optional<std::string> HeaderMap::get(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (util::equalsIgnoreCase(entry.name, name)) return entry.value;
  }
  return std::nullopt;
}

std::vector<std::string> HeaderMap::getAll(std::string_view name) const {
  std::vector<std::string> values;
  for (const Entry& entry : entries_) {
    if (util::equalsIgnoreCase(entry.name, name)) {
      values.push_back(entry.value);
    }
  }
  return values;
}

bool HeaderMap::has(std::string_view name) const {
  return get(name).has_value();
}

HttpResponse HttpResponse::ok(std::string body, std::string contentType) {
  HttpResponse response;
  response.status = 200;
  response.statusText = "OK";
  response.headers.set("Content-Type", contentType);
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::notFound(const std::string& path) {
  HttpResponse response;
  response.status = 404;
  response.statusText = "Not Found";
  response.headers.set("Content-Type", "text/html");
  response.body = "<html><body><h1>404 Not Found</h1><p>" + path +
                  "</p></body></html>";
  return response;
}

HttpResponse HttpResponse::error(int status, std::string statusText) {
  HttpResponse response;
  response.status = status;
  response.statusText = std::move(statusText);
  response.headers.set("Content-Type", "text/html");
  response.body = "<html><body><h1>" + std::to_string(status) + " " +
                  response.statusText + "</h1></body></html>";
  return response;
}

HttpResponse HttpResponse::redirect(const std::string& location, int status) {
  HttpResponse response;
  response.status = status;
  response.statusText = status == 301 ? "Moved Permanently" : "Found";
  response.headers.set("Location", location);
  return response;
}

std::string toWireFormat(const HttpRequest& request) {
  std::string wire =
      request.method + " " + request.url.pathWithQuery() + " HTTP/1.1\r\n";
  wire += "Host: " + request.url.host() + "\r\n";
  for (const HeaderMap::Entry& entry : request.headers.entries()) {
    wire += entry.name + ": " + entry.value + "\r\n";
  }
  wire += "\r\n";
  wire += request.body;
  return wire;
}

std::string toWireFormat(const HttpResponse& response) {
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     response.statusText + "\r\n";
  for (const HeaderMap::Entry& entry : response.headers.entries()) {
    wire += entry.name + ": " + entry.value + "\r\n";
  }
  wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  wire += "\r\n";
  wire += response.body;
  return wire;
}

namespace {

// Length of std::to_string(value).
std::size_t decimalLength(long long value) {
  std::size_t length = value < 0 ? 2 : 1;
  unsigned long long magnitude =
      value < 0 ? 0ULL - static_cast<unsigned long long>(value)
                : static_cast<unsigned long long>(value);
  while (magnitude >= 10) {
    magnitude /= 10;
    ++length;
  }
  return length;
}

// Sum of "name: value\r\n" over the header lines.
std::size_t headerLinesSize(const HeaderMap& headers) {
  std::size_t size = 0;
  for (const HeaderMap::Entry& entry : headers.entries()) {
    size += entry.name.size() + entry.value.size() + 4;
  }
  return size;
}

}  // namespace

std::size_t wireSize(const HttpRequest& request) {
  const Url& url = request.url;
  const std::size_t target =
      url.path().size() + (url.query().empty() ? 0 : 1 + url.query().size());
  // "METHOD target HTTP/1.1\r\n" "Host: host\r\n" headers "\r\n" body
  return request.method.size() + 1 + target + 11 + 6 + url.host().size() +
         2 + headerLinesSize(request.headers) + 2 + request.body.size();
}

std::size_t wireSize(const HttpResponse& response) {
  // "HTTP/1.1 status text\r\n" headers
  // "Content-Length: n\r\n" "\r\n" body
  return 9 + decimalLength(response.status) + 1 +
         response.statusText.size() + 2 + headerLinesSize(response.headers) +
         16 + decimalLength(static_cast<long long>(response.body.size())) +
         2 + 2 + response.body.size();
}

}  // namespace cookiepicker::net
