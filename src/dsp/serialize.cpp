#include "dsp/serialize.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ecocap::dsp::ser {

void reject(std::string_view key, std::string_view what) {
  throw std::runtime_error("checkpoint: " + std::string(what) + " at key '" +
                           std::string(key) + "'");
}

namespace {

/// Strict decimal parse: digits only (after a '-' for signed T), the whole
/// token, no overflow — strtoull alone would wrap "-1" to 2^64-1.
template <class T>
std::optional<T> parse_int(std::string_view token) {
  const std::string s(token);
  const std::size_t first = std::is_signed_v<T> && s.starts_with('-') ? 1 : 0;
  if (first >= s.size() || s[first] < '0' || s[first] > '9') return {};
  char* end = nullptr;
  errno = 0;
  const T x = std::is_signed_v<T> ? std::strtoll(s.c_str(), &end, 10)
                                  : std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return {};
  return x;
}

/// Parses a `n v0 ... v{n-1}` value. The count must match the tokens on
/// the line, so a corrupt count never reaches an allocation.
template <class T, class Parse>
std::vector<T> parse_vec(std::string_view key, std::string_view value,
                         const Parse& parse) {
  std::size_t pos = value.find(' ');
  const auto n = parse_int<std::uint64_t>(value.substr(0, pos));
  if (!n || *n > value.size()) reject(key, "bad vector length");
  std::vector<T> v;
  v.reserve(*n);
  while (pos != std::string_view::npos) {
    const std::size_t next = value.find(' ', pos + 1);
    v.push_back(parse(value.substr(pos + 1, next - pos - 1)));
    pos = next;
  }
  if (v.size() != *n) reject(key, "vector length mismatch");
  return v;
}

}  // namespace

std::string format_real(Real v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
  return buf;
}

Real parse_real(std::string_view token) {
  const std::string s(token);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error("checkpoint: bad real token '" + s + "'");
  }
  return v;
}

Writer::Writer(std::string_view header) {
  out_.append(header);
  out_.push_back('\n');
}

void Writer::kv(std::string_view key, std::string_view value) {
  out_.append(key);
  out_.push_back(' ');
  out_.append(value);
  out_.push_back('\n');
}

void Writer::u64(std::string_view key, std::uint64_t v) {
  kv(key, std::to_string(v));
}

void Writer::i64(std::string_view key, std::int64_t v) {
  kv(key, std::to_string(v));
}

void Writer::real(std::string_view key, Real v) { kv(key, format_real(v)); }

void Writer::real_vec(std::string_view key, const std::vector<Real>& v) {
  std::string line = std::to_string(v.size());
  for (Real x : v) {
    line.push_back(' ');
    line.append(format_real(x));
  }
  kv(key, line);
}

void Writer::u64_vec(std::string_view key, const std::vector<std::uint64_t>& v) {
  std::string line = std::to_string(v.size());
  for (std::uint64_t x : v) {
    line.push_back(' ');
    line.append(std::to_string(x));
  }
  kv(key, line);
}

void Writer::rng(std::string_view key, const Rng& r) {
  std::ostringstream os;
  r.save(os);
  kv(key, os.str());
}

Reader::Reader(std::string content, std::string_view expected_header)
    : content_(std::move(content)) {
  const std::string header = next_line("<header>");
  if (header != expected_header) {
    throw std::runtime_error("checkpoint: header mismatch (got '" + header +
                             "', want '" + std::string(expected_header) + "')");
  }
}

std::string Reader::next_line(std::string_view key) {
  if (pos_ >= content_.size()) reject(key, "unexpected end of file");
  const std::size_t nl = content_.find('\n', pos_);
  if (nl == std::string::npos) reject(key, "truncated line");
  std::string line = content_.substr(pos_, nl - pos_);
  pos_ = nl + 1;
  return line;
}

std::string Reader::kv(std::string_view key) {
  const std::string line = next_line(key);
  const std::size_t sp = line.find(' ');
  const std::string got = line.substr(0, sp);
  if (got != key) reject(key, "key mismatch (got '" + got + "')");
  return sp == std::string::npos ? std::string() : line.substr(sp + 1);
}

std::uint64_t Reader::u64(std::string_view key) {
  const std::string v = kv(key);
  const auto x = parse_int<std::uint64_t>(v);
  if (!x) reject(key, "bad unsigned integer '" + v + "'");
  return *x;
}

std::int64_t Reader::i64(std::string_view key) {
  const std::string v = kv(key);
  const auto x = parse_int<std::int64_t>(v);
  if (!x) reject(key, "bad integer '" + v + "'");
  return *x;
}

Real Reader::real(std::string_view key) { return parse_real(kv(key)); }

std::vector<Real> Reader::real_vec(std::string_view key) {
  return parse_vec<Real>(key, kv(key), parse_real);
}

std::vector<std::uint64_t> Reader::u64_vec(std::string_view key) {
  return parse_vec<std::uint64_t>(key, kv(key), [key](std::string_view t) {
    const auto x = parse_int<std::uint64_t>(t);
    if (!x) reject(key, "bad unsigned integer '" + std::string(t) + "'");
    return *x;
  });
}

void Reader::rng(std::string_view key, Rng& r) {
  std::istringstream is(kv(key));
  Rng loaded = r;
  loaded.load(is);
  if (is.fail()) reject(key, "bad rng state");
  if (!(is >> std::ws).eof()) reject(key, "trailing text after the rng state");
  r = loaded;
}

std::size_t Reader::count(std::string_view key) {
  const std::uint64_t n = u64(key);
  const auto left = static_cast<std::uint64_t>(
      std::count(content_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  content_.end(), '\n'));
  if (n > left) reject(key, "count exceeds the records left");
  return static_cast<std::size_t>(n);
}

void Reader::finish() {
  if (exhausted()) return;
  const std::size_t end = content_.find_first_of(" \n", pos_);
  reject(content_.substr(pos_, end - pos_), "record after the last field");
}

namespace {

#ifndef _WIN32
/// fsync the directory containing `path`, so a just-completed rename in it
/// is durable across power loss (POSIX persists the rename only once the
/// directory's own metadata reaches disk).
bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
#endif

}  // namespace

bool atomic_write_file(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = content.empty() ||
            std::fwrite(content.data(), 1, content.size(), f) == content.size();
  ok = (std::fflush(f) == 0) && ok;
#ifndef _WIN32
  // Force the temp file's *data* to disk before the rename makes it
  // reachable — otherwise power loss can leave `path` pointing at a
  // zero-length or torn file even though the rename itself survived.
  ok = ok && ::fsync(::fileno(f)) == 0;
#endif
  ok = (std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
#ifndef _WIN32
  // And the rename: the directory entry must hit disk too. The data is
  // already safe, so a failure here still leaves a readable file — but we
  // report it, because the durability contract was not met.
  if (!sync_parent_dir(path)) return false;
#endif
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return content;
}

}  // namespace ecocap::dsp::ser
