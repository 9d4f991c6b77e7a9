#include "exec/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exec/outcome.hpp"

namespace pcieb::exec {
namespace fs = std::filesystem;
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw InfraError(what + ": " + std::strerror(errno));
}

void fsync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) fail("open for fsync " + path);
  if (::fsync(fd) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    fail("fsync " + path);
  }
  ::close(fd);
}

std::string record_name(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r%08llu.rec",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& content,
                       bool sync) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("create " + tmp);
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int e = errno;
      ::close(fd);
      errno = e;
      fail("write " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    fail("fsync " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("rename " + tmp);
  if (sync) {
    const fs::path parent = fs::path(path).parent_path();
    fsync_path(parent.empty() ? "." : parent.string(),
               O_RDONLY | O_DIRECTORY);
  }
}

std::string make_temp_dir(const std::string& prefix) {
  std::string templ = (fs::temp_directory_path() / (prefix + "XXXXXX")).string();
  if (!::mkdtemp(templ.data())) fail("mkdtemp " + templ);
  return templ;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InfraError("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string read_file_tail(const std::string& path, std::size_t max_bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return "";
  const auto size = static_cast<std::size_t>(in.tellg());
  const std::size_t take = size < max_bytes ? size : max_bytes;
  in.seekg(static_cast<std::streamoff>(size - take));
  std::string out(take, '\0');
  in.read(out.data(), static_cast<std::streamsize>(take));
  return out;
}

std::string escape_line(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_line(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += s[i];  // unknown escape: keep the literal
    }
  }
  return out;
}

Record parse_record(const std::string& payload) {
  Record rec;
  std::istringstream is(payload);
  std::string line;
  std::getline(is, rec.header);
  while (std::getline(is, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    rec.fields[line.substr(0, eq)] = unescape_line(line.substr(eq + 1));
  }
  return rec;
}

std::string record_str(const Record& rec, const std::string& key) {
  const auto it = rec.fields.find(key);
  return it == rec.fields.end() ? std::string{} : it->second;
}

std::uint64_t record_u64(const Record& rec, const std::string& key) {
  const auto it = rec.fields.find(key);
  if (it == rec.fields.end()) return 0;
  const std::string& s = it->second;
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc{} && end == s.data() + s.size() ? v : 0;
}

Journal::Journal(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) throw InfraError("journal: empty directory path");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw InfraError("journal: cannot create " + dir_ + ": " +
                           ec.message());
}

void Journal::append(std::uint64_t id, const std::string& payload) const {
  atomic_write_file(dir_ + "/" + record_name(id), payload, /*sync=*/true);
}

std::map<std::uint64_t, std::string> Journal::load(const std::string& dir) {
  std::map<std::uint64_t, std::string> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return out;  // absent journal: nothing to resume
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // r<digits>.rec, exactly as record_name writes them.
    if (name.size() < 6 || name.front() != 'r' ||
        name.substr(name.size() - 4) != ".rec") {
      continue;
    }
    const std::string digits = name.substr(1, name.size() - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out[std::stoull(digits)] = read_file(entry.path().string());
  }
  return out;
}

}  // namespace pcieb::exec
