#include "util/npy.hpp"

#include <charconv>
#include <cstdint>
#include <cstring>

#include "util/string_util.hpp"

namespace mummi::util {

namespace {
const char* dtype_str(NpyType t) {
  switch (t) {
    case NpyType::kF32: return "<f4";
    case NpyType::kF64: return "<f8";
    case NpyType::kI64: return "<i8";
  }
  return "<f4";
}

std::size_t dtype_size(NpyType t) {
  return t == NpyType::kF32 ? 4 : 8;
}
}  // namespace

std::size_t NpyArray::element_count() const {
  std::size_t n = 1;
  for (auto d : shape) n *= d;
  return n;
}

NpyArray NpyArray::from_f32(std::vector<std::size_t> shape,
                            std::vector<float> data) {
  NpyArray a;
  a.dtype = NpyType::kF32;
  a.shape = std::move(shape);
  a.f32 = std::move(data);
  MUMMI_CHECK_MSG(a.f32.size() == a.element_count(), "shape/data mismatch");
  return a;
}

NpyArray NpyArray::from_f64(std::vector<std::size_t> shape,
                            std::vector<double> data) {
  NpyArray a;
  a.dtype = NpyType::kF64;
  a.shape = std::move(shape);
  a.f64 = std::move(data);
  MUMMI_CHECK_MSG(a.f64.size() == a.element_count(), "shape/data mismatch");
  return a;
}

NpyArray NpyArray::from_i64(std::vector<std::size_t> shape,
                            std::vector<std::int64_t> data) {
  NpyArray a;
  a.dtype = NpyType::kI64;
  a.shape = std::move(shape);
  a.i64 = std::move(data);
  MUMMI_CHECK_MSG(a.i64.size() == a.element_count(), "shape/data mismatch");
  return a;
}

Bytes npy_encode(const NpyArray& array) {
  std::string shape_str = "(";
  for (std::size_t i = 0; i < array.shape.size(); ++i) {
    shape_str += std::to_string(array.shape[i]);
    if (i + 1 < array.shape.size() || array.shape.size() == 1) shape_str += ",";
    if (i + 1 < array.shape.size()) shape_str += " ";
  }
  shape_str += ")";
  std::string header = format(
      "{'descr': '%s', 'fortran_order': False, 'shape': %s, }",
      dtype_str(array.dtype), shape_str.c_str());
  // Pad with spaces so magic(6)+version(2)+hlen(2)+header is 64-aligned,
  // terminated by '\n' — as the .npy spec requires.
  const std::size_t base = 6 + 2 + 2;
  std::size_t total = base + header.size() + 1;
  const std::size_t padded = (total + 63) / 64 * 64;
  header.append(padded - total, ' ');
  header.push_back('\n');

  ByteWriter w;
  w.raw("\x93NUMPY", 6);
  w.u8(1);  // major version
  w.u8(0);  // minor version
  const auto hlen = static_cast<std::uint16_t>(header.size());
  w.raw(&hlen, 2);
  w.raw(header.data(), header.size());
  switch (array.dtype) {
    case NpyType::kF32:
      w.raw(array.f32.data(), array.f32.size() * 4);
      break;
    case NpyType::kF64:
      w.raw(array.f64.data(), array.f64.size() * 8);
      break;
    case NpyType::kI64:
      w.raw(array.i64.data(), array.i64.size() * 8);
      break;
  }
  return std::move(w).take();
}

namespace {
// Extracts the quoted/paren value following "'key':" in the header dict.
// An empty value or an unterminated quote or paren is a FormatError.
std::string header_field(const std::string& header, const std::string& key) {
  const auto at = header.find("'" + key + "'");
  if (at == std::string::npos) throw FormatError("npy header missing " + key);
  auto pos = header.find(':', at);
  if (pos == std::string::npos) throw FormatError("npy header malformed");
  ++pos;
  while (pos < header.size() && header[pos] == ' ') ++pos;
  std::string value;
  if (header[pos] == '\'' || header[pos] == '(') {
    const bool quoted = header[pos] == '\'';
    const auto end = header.find(quoted ? '\'' : ')', pos + 1);
    if (end == std::string::npos)
      throw FormatError("npy header value unterminated: " + key);
    value = quoted ? header.substr(pos + 1, end - pos - 1)
                   : header.substr(pos, end - pos + 1);
  } else {
    // bare token (True/False)
    const auto end = header.find_first_of(",}", pos);
    value = trim(header.substr(pos, end - pos));
  }
  if (value.empty()) throw FormatError("npy header value empty: " + key);
  return value;
}
}  // namespace

NpyArray npy_decode(const Bytes& bytes) {
  if (bytes.size() < 10 || std::memcmp(bytes.data(), "\x93NUMPY", 6) != 0)
    throw FormatError("not an npy stream");
  const std::uint8_t major = bytes[6];
  if (major != 1) throw FormatError("unsupported npy version");
  std::uint16_t hlen;
  std::memcpy(&hlen, bytes.data() + 8, 2);
  if (bytes.size() < 10u + hlen) throw FormatError("npy stream truncated");
  const std::string header(reinterpret_cast<const char*>(bytes.data() + 10), hlen);

  const std::string descr = header_field(header, "descr");
  const std::string order = header_field(header, "fortran_order");
  if (order != "False") throw FormatError("fortran-order npy unsupported");
  NpyType dtype;
  if (descr == "<f4") dtype = NpyType::kF32;
  else if (descr == "<f8") dtype = NpyType::kF64;
  else if (descr == "<i8") dtype = NpyType::kI64;
  else throw FormatError("unsupported npy dtype: " + descr);

  // Each dimension is a plain decimal integer, and the element count and
  // byte size must fit in size_t: a forged shape must not wrap to an array
  // that claims 2^64 elements and holds none.
  const std::string shape_str = header_field(header, "shape");
  if (shape_str.front() != '(')
    throw FormatError("npy shape is not a tuple: " + shape_str);
  std::vector<std::size_t> shape;
  std::size_t count = 1;
  for (const auto& tok : split(shape_str.substr(1, shape_str.size() - 2), ',')) {
    const std::string t = trim(tok);
    if (t.empty()) continue;
    std::size_t dim = 0;
    const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), dim);
    if (ec != std::errc{} || end != t.data() + t.size())
      throw FormatError("npy shape has a bad dimension: " + t);
    if (dim != 0 && count > SIZE_MAX / dim)
      throw FormatError("npy shape overflows the element count");
    count *= dim;
    shape.push_back(dim);
  }
  if (count > SIZE_MAX / dtype_size(dtype))
    throw FormatError("npy shape overflows the byte count");
  const std::size_t need = count * dtype_size(dtype);

  NpyArray a;
  a.dtype = dtype;
  a.shape = std::move(shape);
  const std::size_t offset = 10u + hlen;
  if (bytes.size() - offset < need) throw FormatError("npy data truncated");
  const auto* src = bytes.data() + offset;
  switch (dtype) {
    case NpyType::kF32:
      a.f32.resize(count);
      std::memcpy(a.f32.data(), src, need);
      break;
    case NpyType::kF64:
      a.f64.resize(count);
      std::memcpy(a.f64.data(), src, need);
      break;
    case NpyType::kI64:
      a.i64.resize(count);
      std::memcpy(a.i64.data(), src, need);
      break;
  }
  return a;
}

}  // namespace mummi::util
