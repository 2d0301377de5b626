// Abstract data interface (paper Sec. 4.2).
//
// "Rather than speculating on all possible scenarios and creating tailored
// implementations, we have developed an abstract notion of a data interface
// to support different specific backends. Currently, we use three backends:
// filesystem, taridx, and redis."
//
// Data lives in (namespace, key) -> byte-stream records. Namespaces are the
// unit of listing and of the feedback "tagging" strategy: processed records
// are *moved out of the relevant namespace* so feedback cost scales with the
// number of ongoing simulations, not with history (paper Task 4).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/npy.hpp"

namespace mummi::ds {

class DataStore {
 public:
  virtual ~DataStore() = default;

  /// Stores a record, overwriting any existing value for the key.
  virtual void put(const std::string& ns, const std::string& key,
                   const util::Bytes& value) = 0;

  /// Reads a record. Throws util::StoreError when absent.
  [[nodiscard]] virtual util::Bytes get(const std::string& ns,
                                        const std::string& key) const = 0;

  [[nodiscard]] virtual bool exists(const std::string& ns,
                                    const std::string& key) const = 0;

  /// Lists keys in a namespace matching a glob pattern ('*'/'?'), in
  /// unspecified order.
  [[nodiscard]] virtual std::vector<std::string> keys(
      const std::string& ns, const std::string& pattern = "*") const = 0;

  /// Removes a record; returns whether it existed. Append-only backends
  /// remove the key from their index (the data itself is unreachable but
  /// retained, as pytaridx does).
  virtual bool erase(const std::string& ns, const std::string& key) = 0;

  /// Moves a record to another namespace — the feedback tagging primitive
  /// ("moving files to tar archives or renaming keys in the database").
  /// Throws util::StoreError when the source is absent.
  virtual void move(const std::string& src_ns, const std::string& key,
                    const std::string& dst_ns) = 0;

  // --- batched operations --------------------------------------------------
  // The feedback collect+tag hot path.

  /// Fetches several records from one namespace, in input order. Throws
  /// util::StoreError when any key is absent (same contract as get).
  [[nodiscard]] virtual std::vector<util::Bytes> get_many(
      const std::string& ns, const std::vector<std::string>& keys) const = 0;

  /// Stores several records into one namespace.
  virtual void put_many(
      const std::string& ns,
      const std::vector<std::pair<std::string, util::Bytes>>& records) = 0;

  /// Moves several records to another namespace — batched tagging. Throws
  /// util::StoreError when any source is absent.
  virtual void move_many(const std::string& src_ns,
                         const std::vector<std::string>& keys,
                         const std::string& dst_ns) = 0;

  /// Number of records in a namespace. Default lists the namespace;
  /// index-backed stores answer without touching any record.
  [[nodiscard]] virtual std::size_t count(const std::string& ns) const;

  /// Persists any buffered state (indices, trailers). No-op by default.
  virtual void flush() {}

  /// Backend identifier ("filesystem", "taridx", "redis").
  [[nodiscard]] virtual std::string backend() const = 0;

  // --- conveniences shared by all backends -------------------------------

  void put_text(const std::string& ns, const std::string& key,
                const std::string& text);
  [[nodiscard]] std::string get_text(const std::string& ns,
                                     const std::string& key) const;

  /// Stores an array as real .npy bytes ("save a Numpy archive into a byte
  /// stream that can be redirected effortlessly to a file, an archive, or a
  /// database — all with a single configuration switch").
  void put_npy(const std::string& ns, const std::string& key,
               const util::NpyArray& array);
  [[nodiscard]] util::NpyArray get_npy(const std::string& ns,
                                       const std::string& key) const;
};

using DataStorePtr = std::shared_ptr<DataStore>;

}  // namespace mummi::ds
