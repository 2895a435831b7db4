/// \file cache_store.cpp
/// Content-addressed on-disk result entries: temp-write + rename, verify
/// the embedded key on load.

#include "scenario/cache_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/hash.hpp"
#include "io/json.hpp"
#include "scenario/engine.hpp"
#include "scenario/result_io.hpp"

namespace greenfpga::scenario {

namespace fs = std::filesystem;

CacheStore::CacheStore(std::string directory) : directory_(std::move(directory)) {
  if (directory_.empty()) {
    throw std::runtime_error("CacheStore: empty cache directory");
  }
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_)) {
    throw std::runtime_error("CacheStore: cannot create cache directory '" +
                             directory_ + "'" + (ec ? ": " + ec.message() : ""));
  }
}

std::string CacheStore::path_for(const std::string& key) const {
  return (fs::path(directory_) / (io::hex64(io::fnv1a64(key)) + ".json")).string();
}

bool CacheStore::save(const std::string& key, const ScenarioResult& result) noexcept {
  try {
    std::string text;
    io::JsonWriter entry(text, 0);
    entry.begin_object();
    entry.string("key", key);
    entry.key("result");
    write_result(result, entry);
    entry.end_object();
    entry.newline();
    entry.finish();
    const std::string final_path = path_for(key);
    const std::string temp_path =
        final_path + ".tmp." +
        std::to_string(temp_sequence_.fetch_add(1, std::memory_order_relaxed));
    {
      std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        return false;
      }
      out << text;
      if (!out.good()) {
        out.close();
        std::remove(temp_path.c_str());
        return false;
      }
    }
    std::error_code ec;
    fs::rename(temp_path, final_path, ec);
    if (ec) {
      std::remove(temp_path.c_str());
      return false;
    }
    return true;
  } catch (...) {
    return false;
  }
}

std::shared_ptr<const ScenarioResult> CacheStore::load(
    const std::string& key) const noexcept {
  try {
    std::ifstream in(path_for(key), std::ios::binary);
    if (!in) {
      return nullptr;  // not persisted (the common cold-key case)
    }
    std::ostringstream text;
    text << in.rdbuf();
    const io::Json entry = io::parse_json(text.str());
    if (!entry.is_object() || !entry.contains("key") ||
        entry.at("key").as_string() != key) {
      return nullptr;  // fingerprint collision or foreign file
    }
    return std::make_shared<const ScenarioResult>(
        result_from_json(entry.at("result")));
  } catch (...) {
    return nullptr;  // unparsable / truncated / schema drift: just a miss
  }
}

}  // namespace greenfpga::scenario
