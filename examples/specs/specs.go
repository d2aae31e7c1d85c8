// Package specs embeds the protocol definitions in this directory. Each
// .pdsl file is the only text of its protocol: the engines compile it
// (dsl.Load), the code generators read it (the //go:generate lines in
// internal/arq/gen and internal/ipv4/gen), and the model checker and
// benchmark read it from disk.
package specs

import _ "embed"

// ARQ is arq.pdsl, the paper's §3.4 stop-and-wait ARQ protocol.
//
//go:embed arq.pdsl
var ARQ string

// Handshake is handshake.pdsl, the connection lifecycle (DESIGN.md §14).
//
//go:embed handshake.pdsl
var Handshake string

// IPv4 is ipv4.pdsl, the RFC 791 header (the paper's Figure 1).
//
//go:embed ipv4.pdsl
var IPv4 string
