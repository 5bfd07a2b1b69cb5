// The one compiled copy of each transfer_execution_state codec
// instantiation; engine.hpp declares them extern.
#include "statechart/engine.hpp"

#include "support/bytes.hpp"

namespace umlsoc::statechart {

template void transfer_execution_state(support::ByteWriter&, InstanceSnapshot&);
template void transfer_execution_state(support::ByteReader&, InstanceSnapshot&);

}  // namespace umlsoc::statechart
