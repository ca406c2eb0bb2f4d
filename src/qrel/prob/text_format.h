// Text serialization of unreliable databases (.udb).
//
// Line-oriented format, '#' starts a comment, blank lines ignored:
//
//   universe 6                 # required first directive; elements are 0..5
//   relation E 2               # declare relation E with arity 2
//   relation S 1
//   fact E 0 1                 # observed true, error probability 0
//   fact E 1 2 err=0.1         # observed true, error probability 1/10
//   absent S 3 err=1/2         # observed false, error probability 1/2
//
// Probabilities are exact rationals: "p/q", integers, or decimals.
// `absent` lines make sense only with a positive error probability (they
// declare unreliable negative information, the general model of Sect. 2;
// de Rougemont's restricted model uses only `fact ... err=` lines).

#ifndef QREL_PROB_TEXT_FORMAT_H_
#define QREL_PROB_TEXT_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qrel/prob/unreliable_database.h"
#include "qrel/util/status.h"

namespace qrel {

// Parses the .udb `text` into an UnreliableDatabase.
StatusOr<UnreliableDatabase> ParseUdb(std::string_view text);

// Reads a database text file (.udb, .mfdb) through the process VFS
// (util/vfs.h), refusing files over 1 GiB. A missing file is kNotFound
// naming the path; any other failure keeps its code.
StatusOr<std::vector<uint8_t>> ReadDatabaseFile(const std::string& path);

// Reads and parses a .udb file.
StatusOr<UnreliableDatabase> LoadUdbFile(const std::string& path);

// Renders `database` in the .udb format (parseable by ParseUdb).
std::string FormatUdb(const UnreliableDatabase& database);

}  // namespace qrel

#endif  // QREL_PROB_TEXT_FORMAT_H_
