// Package ged implements Sentinel's global event detector (Figure 2 of
// the paper): a server that receives primitive event occurrences
// contributed by several applications, detects inter-application
// composite events on its own event graph, and notifies the subscribed
// applications, which execute the corresponding rules detached from the
// triggering transactions.
//
// The paper leaves the transport to CORBA as future work; this package
// provides a production event bus instead:
//
//   - wire.go — a length-prefixed, pipelined binary frame protocol
//     (varint integers, type-tagged parameter values) with strict size
//     limits, so a torn or hostile frame is a protocol error rather
//     than a hang or an allocation bomb;
//   - eventlog.go — a durable, segmented, CRC-checksummed append-only
//     log of every contribution, giving offset-addressed replay;
//   - server.go — the GED server: batched contributes feed
//     Detector.SignalBatch under one graph-lock acquisition, live
//     notifications ride bounded per-connection send queues that shed
//     (and count) under backpressure, and stream subscriptions replay
//     the log from any offset then follow its tail for at-least-once
//     delivery;
//   - client.go — the application-side connection: pipelined
//     acknowledged contributions, Flush durability barrier, live and
//     stream subscriptions.
//
// A deployment runs one GED, as in the paper: a global composite event
// can only be detected where all of its constituents arrive.
package ged
