// XML export of ROSpecs.
//
// LLRP tooling (the LTK the paper uses) configures readers with ROSpec XML
// documents (paper Fig. 11).  This writes what Tagwatch sends to the
// reader, for inspection and export; nothing reads it back.  One writer
// emits the text either into a string (to_xml) or straight into
// rospec_digest()'s FNV-1a hash, so the digest never builds the string;
// every journal digest depends on this formatting.  The dialect is a
// compact element-per-field subset, e.g.:
//
//   <ROSpec id="1" priority="0" loops="1">
//     <AISpec session="1" initialQ="4">
//       <Antennas>0,1</Antennas>
//       <C1G2Filter bank="1" pointer="3">
//         <Mask>11</Mask>
//       </C1G2Filter>
//       <StopTrigger kind="duration" ms="5000"/>
//     </AISpec>
//   </ROSpec>
#pragma once

#include <string>

#include "llrp/rospec.hpp"

namespace tagwatch::llrp {

/// Renders a ROSpec as XML (stable formatting).
std::string to_xml(const ROSpec& spec);

}  // namespace tagwatch::llrp
