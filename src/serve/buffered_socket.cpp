#include "serve/buffered_socket.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace cookiepicker::serve {

BufferedSocket::~BufferedSocket() { close(); }

std::size_t BufferedSocket::fillFromSocket() {
  std::size_t total = 0;
  char chunk[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      inbox_.append(chunk, static_cast<std::size_t>(n));
      total += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      eof_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    error_ = true;
    break;
  }
  return total;
}

bool BufferedSocket::flush() {
  while (!outbox_.empty()) {
    const ssize_t n =
        ::send(fd_, outbox_.data(), outbox_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      outbox_.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    error_ = true;
    return false;
  }
  return true;
}

void BufferedSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace cookiepicker::serve
