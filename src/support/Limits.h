//===--- Limits.h - Bounds shared by the frontends and the wire -*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_LIMITS_H
#define TELECHAT_SUPPORT_LIMITS_H

namespace telechat {

/// The deepest expression or statement tree an input may hold. Real
/// inputs are shallow (the deepest embedded Cat model nests 10 levels,
/// litmus branches a handful), so anything deeper is hostile or corrupt;
/// refusing it keeps every recursive walk off the untrusted-stack-depth
/// path.
constexpr unsigned MaxTreeDepth = 64;

} // namespace telechat

#endif // TELECHAT_SUPPORT_LIMITS_H
