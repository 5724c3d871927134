// Non-blocking socket with in/out byte buffers.
//
// The edge-triggered loop contract in one object: fillFromSocket() reads
// until EAGAIN (so no readable edge is ever lost), flush() writes queued
// bytes until done or EAGAIN (the caller arms kWritable only while
// wantsWrite() is true). The buffers decouple HTTP framing from socket
// readiness — parsers consume from inbox() at whatever message granularity
// they like, and serializers queue whole messages without caring how many
// write() calls the kernel needs.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace cookiepicker::serve {

class BufferedSocket {
 public:
  // Takes ownership of `fd` (must already be non-blocking) and closes it on
  // destruction.
  explicit BufferedSocket(int fd) : fd_(fd) {}
  ~BufferedSocket();
  BufferedSocket(const BufferedSocket&) = delete;
  BufferedSocket& operator=(const BufferedSocket&) = delete;

  // Reads until EAGAIN, EOF, or a hard error; appends to inbox(). Returns
  // the number of bytes read this call. Check eof()/hadError() after.
  std::size_t fillFromSocket();

  std::string& inbox() { return inbox_; }

  void queueWrite(std::string_view bytes) { outbox_.append(bytes); }
  // Writes until the outbox empties or EAGAIN; returns false on hard error.
  bool flush();
  bool wantsWrite() const { return !outbox_.empty(); }

  // Peer closed its write side (read returned 0).
  bool eof() const { return eof_; }
  bool hadError() const { return error_; }
  int fd() const { return fd_; }

  void close();

 private:
  int fd_ = -1;
  std::string inbox_;
  std::string outbox_;
  bool eof_ = false;
  bool error_ = false;
};

}  // namespace cookiepicker::serve
