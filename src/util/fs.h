// Small filesystem helpers shared by the campaign cache, the result
// readers and writers and benches.
#ifndef CLEAR_UTIL_FS_H
#define CLEAR_UTIL_FS_H

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>

namespace clear::util {

// Creates `path` (and parents) if missing; returns true iff the directory
// exists afterwards.  Unlike a bare create_directories() this is safe
// against the create/create race: when two processes (or pool workers)
// race through the exists-check and one mkdir loses with EEXIST, the loser
// re-checks instead of failing -- both callers see success as long as a
// directory ends up in place.
inline bool ensure_dir(const std::string& path) {
  if (path.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  // EEXIST (or any transient error another creator can cause) is benign
  // iff the directory is there now; re-stat rather than trusting ec.
  std::error_code ignored;
  return std::filesystem::is_directory(path, ignored);
}

// Writes `bytes` to `path` through `path.tmp` + rename, so a reader (or a
// crash) sees the old file or the new one, never a torn mix.  Returns
// false, leaving no tmp file behind, when either step fails.  A path that
// names an existing device or FIFO (/dev/null, /dev/stdout) is written in
// place: a rename would replace the node itself.
inline bool write_file_atomic(const std::string& path,
                              const std::string& bytes) {
  const auto write_to = [&bytes](const std::string& p) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    return out &&
           out.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size())) &&
           out.flush();
  };
  std::error_code ec;
  const auto st = std::filesystem::status(path, ec);
  if (!ec && std::filesystem::exists(st) &&
      !std::filesystem::is_regular_file(st) &&
      !std::filesystem::is_directory(st)) {
    return write_to(path);
  }
  const std::string tmp = path + ".tmp";
  const bool written = write_to(tmp);
  if (written) std::filesystem::rename(tmp, path, ec);
  if (!written || ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

// Reads the whole of `path` into *out.  Returns false, leaving *out
// untouched, when the file cannot be opened.
inline bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

}  // namespace clear::util

#endif  // CLEAR_UTIL_FS_H
