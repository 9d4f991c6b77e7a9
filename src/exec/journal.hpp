// Crash-safe result journal: one file per completed record, appended via
// write-temp + fsync + rename (then fsync of the directory), so a record
// is either fully present or absent no matter where the campaign process
// was killed — there are no torn records to repair on resume.
//
// A journal is a directory. Record `id` lives in `r<id, 8 digits>.rec`;
// in-flight temps carry a `.tmp` suffix and are ignored (and may be left
// behind by a SIGKILL — load() skips them, append() overwrites them).
// Payloads are opaque to the journal; job sets store line-oriented
// `key=value` records with escape_line()-encoded values. run_job_set
// (job_set.hpp) is the one writer and reader. See docs/EXEC.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pcieb::exec {

/// Write `content` to `path` atomically (temp + rename, optionally with
/// fsync of file and parent directory). Throws InfraError on I/O failure.
void atomic_write_file(const std::string& path, const std::string& content,
                       bool sync = true);

/// Whole file as a string; throws InfraError when unreadable.
std::string read_file(const std::string& path);

/// Fresh unique directory under the system temp dir (mkdtemp), e.g. for
/// journals of one-shot runs. Throws InfraError on failure.
std::string make_temp_dir(const std::string& prefix);

/// Last `max_bytes` of the file at `path`; "" when absent/unreadable.
std::string read_file_tail(const std::string& path, std::size_t max_bytes);

/// One-line escaping for journal values: '\\' -> "\\\\", '\n' -> "\\n",
/// '\r' -> "\\r". Round-trips through unescape_line.
std::string escape_line(const std::string& s);
std::string unescape_line(const std::string& s);

/// A parsed line-oriented record: the first line is the header (e.g.
/// "pcieb-trial v1"), every later line is `key=value` with an
/// escape_line()-encoded value. Lines without '=' are skipped; a key
/// that repeats keeps its last value.
struct Record {
  std::string header;
  std::map<std::string, std::string> fields;
};
Record parse_record(const std::string& payload);

/// Field `key` (unescaped), or "" when absent.
std::string record_str(const Record& rec, const std::string& key);
/// Field `key` as an unsigned decimal. An absent value, or one that is
/// not entirely decimal digits (or overflows 64 bits), reads 0.
std::uint64_t record_u64(const Record& rec, const std::string& key);

class Journal {
 public:
  /// Opens (creating if needed) the journal directory.
  explicit Journal(std::string dir);

  /// Durably record `payload` for record `id` (overwrites a prior record
  /// with the same id: one a resume rejected, when its job re-ran).
  void append(std::uint64_t id, const std::string& payload) const;

  /// All committed records in `dir`, keyed by id. Missing directory reads
  /// as empty; temps, subdirectories and foreign files are skipped.
  static std::map<std::uint64_t, std::string> load(const std::string& dir);

 private:
  std::string dir_;
};

}  // namespace pcieb::exec
