#include "common/byte_buf.hpp"

#include "common/check.hpp"

namespace ambb {

Encoder& Encoder::scratch() {
  thread_local Encoder e;
  // Reentrancy guard: the previous acquisition must have been consumed
  // (view()/bytes()) or abandoned (clear()). Without this, a nested
  // scratch() user would clear a buffer that is still mid-encode and the
  // outer caller would hash/sign truncated bytes with no diagnostic.
  AMBB_CHECK_MSG(!e.busy_, "Encoder::scratch() re-acquired mid-encode");
  e.clear();
  e.busy_ = true;
  return e;
}

}  // namespace ambb
