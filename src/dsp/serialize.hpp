#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace ecocap::dsp::ser {

/// Line-oriented, human-inspectable checkpoint serialization.
///
/// Every record is one `key value...` line. Reals are written as C99
/// hexfloats ("%a"), so a save/load round trip reproduces the exact bit
/// pattern — the property the crash-safe campaign checkpoints need for
/// resume runs to stay bit-identical to uninterrupted ones. An Rng record
/// is Rng::save's text: the MT19937-64 state vector and index plus the
/// polar normal draw's cached spare variate, byte-for-byte the text
/// libstdc++ writes for std::mt19937_64 and its normal and uniform
/// distributions, so the record loads in both generators; a spare outside
/// the polar method's range or text after the state is rejected.
///
/// One field list per type: Writer and Reader share a typed visit surface
/// (field, expect, value, nested, seq, optional), so a state owner lists
/// its records once, in a `template <class Self, class Ar> static void
/// io(Self&, Ar&)` that saves with (const T, Writer) and loads with
/// (T, Reader). Work only one direction needs (quiescence checks before a
/// save, rebuilding derived state after a load) stays outside the list.
///
/// One envelope: save()/load() frame every checkpoint as the header line,
/// the fingerprint records, then the payload records; save_file() and
/// load_file() add the crash-safe file I/O.
///
/// Strict loads: the Reader consumes records in order and throws
/// std::runtime_error, naming the key, on a wrong header, a key out of
/// order, a truncated or unparsable record, a signed value in an unsigned
/// record, a value outside its destination type or bounds, a list count
/// larger than the records left (checked before allocating), a fingerprint
/// mismatch, and records left over after the last field.

/// Bit-exact textual encoding of a Real (hexfloat; nan/inf pass through).
std::string format_real(Real v);

/// Parse a format_real token back; throws std::runtime_error on garbage.
Real parse_real(std::string_view token);

/// Throws the std::runtime_error every checkpoint rejection raises.
[[noreturn]] void reject(std::string_view key, std::string_view what);

class Writer {
 public:
  /// `header` becomes the first line; the Reader checks it verbatim
  /// (format + version tag, e.g. "ecocap-campaign-checkpoint v1").
  explicit Writer(std::string_view header);

  /// Raw record: `key value`; `value` may contain spaces but no newlines.
  void kv(std::string_view key, std::string_view value);

  void u64(std::string_view key, std::uint64_t v);
  void i64(std::string_view key, std::int64_t v);
  void real(std::string_view key, Real v);
  void str(std::string_view key, std::string_view v) { kv(key, v); }

  /// `key n v0 v1 ... v{n-1}` on a single line.
  void real_vec(std::string_view key, const std::vector<Real>& v);

  /// `key n v0 v1 ... v{n-1}` of decimal u64 on a single line (packed
  /// telemetry words, fault-plan cursors).
  void u64_vec(std::string_view key, const std::vector<std::uint64_t>& v);

  /// Full generator state (engine + distribution caches) on one line.
  void rng(std::string_view key, const Rng& r);

  // --- typed visit surface (mirrored by Reader) ---------------------------

  /// A Real, bool (0/1), integer or enum (decimal), string, vector<Real>,
  /// vector<u64> or Rng record.
  template <class T>
  void field(std::string_view key, const T& v);
  /// Bounded field: the Reader rejects values outside [lo, hi].
  template <class T>
  void field(std::string_view key, const T& v, std::type_identity_t<T>,
             std::type_identity_t<T>) {
    field(key, v);
  }
  /// Fingerprint record: the Reader rejects any other value.
  template <class T>
  void expect(std::string_view key, const T& v) { field(key, v); }
  /// Getter/setter state: writes `v`; the Reader hands the loaded value to
  /// `set` (a generic lambda, so the const save path never instantiates it).
  template <class T, class Set>
  void value(std::string_view key, const T& v, Set&&) { field(key, v); }
  /// A nested state owner with `void save(Writer&) const`.
  template <class T>
  void nested(const T& owner) { owner.save(*this); }
  /// Counted list: `key n`, then `each(element)`; map elements are pairs.
  template <class C, class Each>
  void seq(std::string_view key, const C& c, Each&& each) {
    u64(key, c.size());
    for (const auto& e : c) each(e);
  }
  /// Presence flag, then the owner; the Reader emplaces it with `make()`.
  template <class T, class Make>
  void optional(std::string_view key, const std::optional<T>& o, Make&&) {
    field(key, o.has_value());
    if (o) nested(*o);
  }

  /// The accumulated payload (header + records).
  const std::string& payload() const { return out_; }

 private:
  std::string out_;
};

class Reader {
 public:
  /// Throws std::runtime_error when the first line differs from
  /// `expected_header` (wrong file, wrong version).
  Reader(std::string content, std::string_view expected_header);

  /// Next record's value; throws when the next line's key differs.
  std::string kv(std::string_view key);

  std::uint64_t u64(std::string_view key);
  std::int64_t i64(std::string_view key);
  Real real(std::string_view key);
  std::string str(std::string_view key) { return kv(key); }
  std::vector<Real> real_vec(std::string_view key);
  std::vector<std::uint64_t> u64_vec(std::string_view key);
  void rng(std::string_view key, Rng& r);

  /// Element count of a list record: rejected when larger than the number
  /// of records left (every element takes at least one line), so a corrupt
  /// count never reaches an allocation.
  std::size_t count(std::string_view key);

  /// True when every line has been consumed.
  bool exhausted() const { return pos_ >= content_.size(); }

  /// Throws unless every record has been consumed.
  void finish();

  // --- typed visit surface (mirrors Writer) -------------------------------

  template <class T>
  void field(std::string_view key, T& v);
  template <class T>
  void field(std::string_view key, T& v, std::type_identity_t<T> lo,
             std::type_identity_t<T> hi) {
    if constexpr (std::is_enum_v<T>) {
      using U = std::underlying_type_t<T>;
      U raw{};
      field(key, raw, static_cast<U>(lo), static_cast<U>(hi));
      v = static_cast<T>(raw);
    } else {
      T x{};
      field(key, x);
      if (x < lo || x > hi) reject(key, "value out of bounds");
      v = x;
    }
  }
  template <class T>
  void expect(std::string_view key, const T& want) {
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      if (str(key) != want) reject(key, "fingerprint mismatch");
    } else {
      T got{};
      field(key, got);
      if (!(got == want)) reject(key, "fingerprint mismatch");
    }
  }
  template <class T, class Set>
  void value(std::string_view key, const T&, Set&& set) {
    T x{};
    field(key, x);
    set(std::move(x));
  }
  template <class T>
  void nested(T& owner) { owner.load(*this); }
  template <class C, class Each>
  void seq(std::string_view key, C& c, Each&& each) {
    const std::size_t n = count(key);
    c.clear();
    if constexpr (requires { typename C::mapped_type; }) {
      for (std::size_t i = 0; i < n; ++i) {
        std::pair<typename C::key_type, typename C::mapped_type> e{};
        each(e);
        c.insert_or_assign(std::move(e.first), std::move(e.second));
      }
    } else {
      c.reserve(n);
      for (std::size_t i = 0; i < n; ++i) each(c.emplace_back());
    }
  }
  template <class T, class Make>
  void optional(std::string_view key, std::optional<T>& o, Make&& make) {
    bool present = false;
    field(key, present);
    o.reset();
    if (present) nested(o.emplace(make()));
  }

 private:
  std::string next_line(std::string_view key);

  std::string content_;
  std::size_t pos_ = 0;
};

template <class T>
void Writer::field(std::string_view key, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    field(key, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_same_v<T, bool>) {
    u64(key, v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, Real>) {
    real(key, v);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    i64(key, v);
  } else if constexpr (std::is_integral_v<T>) {
    u64(key, v);
  } else if constexpr (std::is_same_v<T, Rng>) {
    rng(key, v);
  } else if constexpr (std::is_same_v<T, std::vector<Real>>) {
    real_vec(key, v);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
    u64_vec(key, v);
  } else {
    static_assert(std::is_convertible_v<const T&, std::string_view>,
                  "unsupported field type");
    str(key, v);
  }
}

template <class T>
void Reader::field(std::string_view key, T& v) {
  static_assert(!std::is_enum_v<T>,
                "read enums with the bounded field(key, v, lo, hi)");
  if constexpr (std::is_same_v<T, bool>) {
    const std::uint64_t x = u64(key);
    if (x > 1) reject(key, "flag is not 0 or 1");
    v = x != 0;
  } else if constexpr (std::is_same_v<T, Real>) {
    v = real(key);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    const std::int64_t x = i64(key);
    if constexpr (sizeof(T) < sizeof(x)) {
      if (x < std::numeric_limits<T>::min() ||
          x > std::numeric_limits<T>::max()) {
        reject(key, "value out of range");
      }
    }
    v = static_cast<T>(x);
  } else if constexpr (std::is_integral_v<T>) {
    const std::uint64_t x = u64(key);
    if constexpr (sizeof(T) < sizeof(x)) {
      if (x > std::numeric_limits<T>::max()) reject(key, "value out of range");
    }
    v = static_cast<T>(x);
  } else if constexpr (std::is_same_v<T, Rng>) {
    rng(key, v);
  } else if constexpr (std::is_same_v<T, std::vector<Real>>) {
    v = real_vec(key);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
    v = u64_vec(key);
  } else {
    static_assert(std::is_same_v<T, std::string>, "unsupported field type");
    v = str(key);
  }
}

// --- the checkpoint envelope ---------------------------------------------

/// A checkpoint payload: `header`, the records `fingerprint(Writer&)`
/// writes, then the records `payload(Writer&)` writes. Both callbacks are
/// usually generic lambdas shared with load().
template <class Fingerprint, class Payload>
std::string save(std::string_view header, const Fingerprint& fingerprint,
                 const Payload& payload) {
  Writer w(header);
  fingerprint(w);
  payload(w);
  return w.payload();
}

/// Inverse of save(): throws std::runtime_error on a wrong header, a
/// fingerprint mismatch, any strict-load rejection, or trailing records.
template <class Fingerprint, class Payload>
void load(std::string content, std::string_view header,
          const Fingerprint& fingerprint, const Payload& payload) {
  Reader r(std::move(content), header);
  fingerprint(r);
  payload(r);
  r.finish();
}

/// Crash-safe file replacement: write `content` to `path + ".tmp"`, flush,
/// fsync the temp file, atomically rename over `path`, then fsync the
/// parent directory so the rename itself is durable. An interrupted writer
/// can leave a stale .tmp behind but never a truncated `path`, and a
/// completed call survives power loss, not just process death. Returns
/// false (after cleaning up the temp file) when any step fails — including
/// an unwritable path or a failed fsync.
bool atomic_write_file(const std::string& path, std::string_view content);

/// Whole-file slurp; nullopt when the file does not exist or is unreadable.
std::optional<std::string> read_file(const std::string& path);

/// save() into `path` via atomic_write_file; throws when the write fails.
template <class Fingerprint, class Payload>
void save_file(const std::string& path, std::string_view header,
               const Fingerprint& fingerprint, const Payload& payload) {
  if (!atomic_write_file(path, save(header, fingerprint, payload))) {
    throw std::runtime_error("checkpoint: cannot write " + path);
  }
}

/// load() from `path`; a missing or unreadable file throws too.
template <class Fingerprint, class Payload>
void load_file(const std::string& path, std::string_view header,
               const Fingerprint& fingerprint, const Payload& payload) {
  auto content = read_file(path);
  if (!content) throw std::runtime_error("checkpoint: cannot read " + path);
  load(std::move(*content), header, fingerprint, payload);
}

}  // namespace ecocap::dsp::ser
