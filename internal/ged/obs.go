package ged

import (
	"repro/internal/obs"
)

// serverMetrics are the GED server's wire- and log-level instruments.
// They are created with the server (plain atomics, always on) and
// exported when a registry is attached via Server.RegisterMetrics, so
// gedserver -debug and embedded servers share one source of truth.
type serverMetrics struct {
	connects     obs.Counter // connections accepted over the server's life
	contribBatch obs.Counter // contribute batches: the frames one read buffered
	contribOccs  obs.Counter // occurrences contributed
	acksSent     obs.Counter // contribute acks enqueued
	notifySent   obs.Counter // live notifies enqueued to send queues
	notifyShed   obs.Counter // live notifies dropped: send queue full
	streamSent   obs.Counter // stream (replay/tail) deliveries written
	protoErrors  obs.Counter // connections dropped on malformed frames
	logAppends   obs.Counter // event-log append batches

	dispatch  *obs.Histogram // batch decode → log append + detection + notify enqueue + ack enqueue
	queueWait *obs.Histogram // send-queue enqueue → socket write
	logAppend *obs.Histogram // event-log append batch duration
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		dispatch:  obs.NewHistogram(obs.DurationBuckets()),
		queueWait: obs.NewHistogram(obs.DurationBuckets()),
		logAppend: obs.NewHistogram(obs.DurationBuckets()),
	}
}

// RegisterMetrics wires the server into a metrics registry: counters and
// histograms are read-through views over the server's own instruments,
// and the gauges sample connection/queue/log state at scrape time only.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	m := s.met
	r.CounterFunc("sentinel_ged_connects_total",
		"Client connections accepted by the GED server.", m.connects.Value)
	r.CounterFunc("sentinel_ged_contribute_batches_total",
		"Contribute batches: each is the run of contribute frames one read buffered, logged, signalled and acked together.", m.contribBatch.Value)
	r.CounterFunc("sentinel_ged_contribute_occurrences_total",
		"Occurrences contributed into the global event graph.", m.contribOccs.Value)
	r.CounterFunc("sentinel_ged_contribute_acks_total",
		"Contribute acknowledgements enqueued.", m.acksSent.Value)
	r.CounterFunc("sentinel_ged_notify_sent_total",
		"Live notifications enqueued to client send queues.", m.notifySent.Value)
	r.CounterFunc("sentinel_ged_notify_shed_total",
		"Live notifications shed because a client's send queue was full (the load-shedding verdict; stream subscribers replay the gap from the log).",
		m.notifyShed.Value)
	r.CounterFunc("sentinel_ged_stream_sent_total",
		"Stream (replay and tail) deliveries enqueued.", m.streamSent.Value)
	r.CounterFunc("sentinel_ged_protocol_errors_total",
		"Connections dropped on malformed, oversized, or torn frames.", m.protoErrors.Value)
	r.CounterFunc("sentinel_ged_log_append_batches_total",
		"Event-log append batches.", m.logAppends.Value)
	r.RegisterHistogram("sentinel_ged_dispatch_seconds",
		"Contribute batch decode through log append, detection, notify enqueue, and ack enqueue.",
		m.dispatch)
	r.RegisterHistogram("sentinel_ged_send_queue_wait_seconds",
		"Send-queue residency: frame enqueue to socket write.", m.queueWait)
	r.RegisterHistogram("sentinel_ged_log_append_seconds",
		"Durable event-log append batch duration.", m.logAppend)
	r.GaugeFunc("sentinel_ged_connections",
		"Currently connected clients.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		})
	r.GaugeFunc("sentinel_ged_send_queue_depth",
		"Frames queued across all client send queues.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for c := range s.conns {
				n += len(c.out)
			}
			return float64(n)
		})
	r.GaugeFunc("sentinel_ged_streams",
		"Active stream (replay/tail) subscriptions.", func() float64 {
			return float64(s.streams.Load())
		})
	r.GaugeFunc("sentinel_ged_log_end_offset",
		"Next event-log offset to be assigned.", func() float64 {
			if s.log == nil {
				return 0
			}
			return float64(s.log.End())
		})
	r.GaugeFunc("sentinel_ged_log_durable_offset",
		"Fsynced event-log watermark.", func() float64 {
			if s.log == nil {
				return 0
			}
			return float64(s.log.Durable())
		})
}
