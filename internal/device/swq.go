package device

import (
	"repro/internal/attrib"
	"repro/internal/hostmem"
	"repro/internal/observe"
	"repro/internal/platform"
	"repro/internal/sim"
)

// SWQEndpoint is the device side of the application-managed
// software-queue interface for one core (§IV-A, Software-Managed Queue
// Design): a doorbell register, a request fetcher that burst-reads
// descriptors from host memory, and the delay-module response path that
// writes response data and completion entries back into host memory.
type SWQEndpoint struct {
	dev    *Device
	coreID int
	rq     *hostmem.RequestQueue
	cq     *hostmem.CompletionQueue

	doorbell sim.Gate // armed while the fetcher is parked

	// cqNotify fires at the next completion post. It is armed only
	// while a poller holds it (see CompletionGate).
	cqNotify   sim.Gate
	cqNotified bool // cqNotify armed and not yet fired

	// step is the fetcher's gate for its own blocking DMA steps. Only
	// the fetcher waits on it, so each step re-arms it after the
	// previous one fired.
	step sim.Gate

	data hostmem.IDRing[[]byte] // response lines landed in host memory, by descriptor ID

	fetchBursts  uint64 // DMA burst reads issued
	emptyBursts  uint64 // bursts that returned no descriptors
	doorbellHits uint64 // doorbell MMIO writes received

	stopped bool // fetcher shutdown requested (end of run)

	// The request fetcher's continuation state (see resume).
	state fetchState
	burst []hostmem.Descriptor // the burst the fetcher is reading
	final bool                 // the burst is the re-check after the flag write

	// Callbacks bound once at construction.
	resumeFn          func() // the fetcher's continuation
	stepDoneFn        func() // step.Fire
	doorbellArrivedFn func()
	flagArrivedFn     func()

	respFree  []*swqResponse   // response records whose data landed, for reuse
	complFree []*swqCompletion // completion records that posted, for reuse
}

// NewSWQEndpoint creates the endpoint for coreID over the given
// host-memory queues and starts its request fetcher.
func (d *Device) NewSWQEndpoint(coreID int, rq *hostmem.RequestQueue, cq *hostmem.CompletionQueue) *SWQEndpoint {
	e := &SWQEndpoint{
		dev:    d,
		coreID: coreID,
		rq:     rq,
		cq:     cq,
	}
	e.doorbell.Init(d.eng)
	e.resumeFn = e.resume
	e.stepDoneFn = e.step.Fire
	e.doorbellArrivedFn = e.doorbellArrived
	e.flagArrivedFn = e.flagArrived
	d.eng.At(d.eng.Now(), e.resumeFn)
	return e
}

// Doorbell delivers the host's MMIO doorbell write to the device,
// restarting the parked fetcher when the write arrives. The host-side
// CPU cost of the uncached write is charged by the caller.
func (e *SWQEndpoint) Doorbell() {
	e.dev.link.SendDown(0, 0, e.doorbellArrivedFn)
}

// doorbellArrived restarts the parked fetcher when a doorbell write
// reaches the device.
func (e *SWQEndpoint) doorbellArrived() {
	if e.dev.inj.DropDoorbell() {
		// Write lost at the device: the fetcher stays parked until the
		// host's timeout re-rings.
		return
	}
	e.doorbellHits++
	if !e.doorbell.Fired() {
		e.doorbell.Fire()
	}
}

// CompletionGate returns a gate that fires the next time a completion is
// posted. Callers must obtain the gate before checking the completion
// queue to avoid a lost wakeup. The endpoint has one poller, the core's
// scheduler, which is done with a fired gate by the time it asks
// again, so the endpoint re-arms one gate instead of building one per
// poll.
func (e *SWQEndpoint) CompletionGate() *sim.Gate {
	if !e.cqNotified {
		e.cqNotify.Init(e.dev.eng)
		e.cqNotified = true
	}
	return &e.cqNotify
}

// Data returns the response line for a completed descriptor, consuming
// it (it models the host reading the line from the descriptor's target
// address).
func (e *SWQEndpoint) Data(id uint64) []byte {
	line, _ := e.data.Take(id)
	return line
}

// FetchBursts returns the number of DMA burst reads issued.
func (e *SWQEndpoint) FetchBursts() uint64 { return e.fetchBursts }

// EmptyBursts returns how many bursts found no descriptors.
func (e *SWQEndpoint) EmptyBursts() uint64 { return e.emptyBursts }

// DoorbellHits returns how many doorbell writes the device received.
func (e *SWQEndpoint) DoorbellHits() uint64 { return e.doorbellHits }

// Stop shuts the request fetcher down after it drains its current work;
// the harness calls it at the end of a measured run so the fetcher
// stops parking on the doorbell.
func (e *SWQEndpoint) Stop() {
	e.stopped = true
	if !e.doorbell.Fired() {
		e.doorbell.Fire()
	}
}

// fetchState is a state of the request fetcher.
type fetchState uint8

const (
	fetchParked    fetchState = iota // wait for a doorbell
	fetchBurst                       // issue a burst read's request TLP
	fetchRequested                   // the request reached the host: read its memory
	fetchRead                        // the descriptors are read: send them down
	fetchLanded                      // the burst reached the device
	fetchFlagged                     // the doorbell-request flag is written
)

// resume runs the request fetcher, an engine continuation, until it
// must wait or is stopped. Parked until a doorbell arrives, it then
// burst-reads descriptors from host memory and keeps reading "so long
// as at least one new descriptor is retrieved during the last burst"
// (§IV-A). When a burst comes back empty it sets the in-memory
// doorbell-request flag, performs one final burst read to close the
// race with a host that submitted after the empty burst but before the
// flag landed, and parks again. Each DMA step re-arms the step gate
// and waits on it.
func (e *SWQEndpoint) resume() {
	eng := e.dev.eng
	for {
		switch e.state {
		case fetchParked:
			if e.doorbell.Await(e.resumeFn) {
				return
			}
			if e.stopped {
				return
			}
			e.doorbell.Init(eng) // re-arm for the next park
			e.final = false
			e.state = fetchBurst

		case fetchBurst:
			// One DMA burst read of up to FetchBurst descriptors: an
			// upstream read-request TLP, the host memory access, and
			// the downstream completion TLP carrying the descriptors.
			e.fetchBursts++
			e.step.Init(eng)
			e.dev.link.SendUp(0, 0, e.stepDoneFn)
			e.state = fetchRequested
			if e.step.Await(e.resumeFn) {
				return
			}

		case fetchRequested:
			e.step.Init(eng)
			e.dev.hostDRAM.Read(&e.step)
			e.state = fetchRead
			if e.step.Await(e.resumeFn) {
				return
			}

		case fetchRead:
			e.burst = e.rq.PopBurst(e.dev.cfg.FetchBurst)
			if len(e.burst) == 0 {
				e.emptyBursts++
			}
			payload := len(e.burst) * e.dev.cfg.DescriptorBytes
			e.step.Init(eng)
			e.dev.link.SendDown(payload, 0, e.stepDoneFn)
			e.state = fetchLanded
			if e.step.Await(e.resumeFn) {
				return
			}

		case fetchLanded:
			burst := e.burst
			e.burst = nil
			switch {
			case len(burst) > 0:
				e.process(burst)
				e.final = false
				e.state = fetchBurst
			case e.final:
				e.state = fetchParked
			default:
				// Empty burst: publish the doorbell-request flag via a
				// small DMA write, then re-check once.
				e.step.Init(eng)
				e.dev.link.SendUp(8, 0, e.flagArrivedFn)
				e.state = fetchFlagged
				if e.step.Await(e.resumeFn) {
					return
				}
			}

		case fetchFlagged:
			e.rq.SetDoorbellRequested()
			e.final = true
			e.state = fetchBurst
		}
	}
}

// flagArrived writes the doorbell-request flag into host memory once
// its TLP has reached the host.
func (e *SWQEndpoint) flagArrived() { e.dev.hostDRAM.Write(&e.step) }

// process forwards fetched descriptors to the replay module and
// schedules the delay-module response path for each: a response-data
// write into the descriptor's target address followed — strictly after,
// as the protocol requires (§IV-A) — by a completion-queue write.
// Processing is asynchronous: the fetcher immediately continues with its
// next burst while responses are in flight.
func (e *SWQEndpoint) process(burst []hostmem.Descriptor) {
	arrival := e.dev.eng.Now()
	for _, desc := range burst {
		if desc.Write {
			e.processWrite(desc)
			continue
		}
		// Time from submission to the fetch burst landing here is
		// descriptor queue wait (doorbell, park, burst DMA).
		desc.Obs.Mark(arrival, "desc-fetched", attrib.PhaseQueueWait)
		data, fromReplay := e.dev.serve(e.coreID, desc.Addr)
		if fromReplay {
			desc.Obs.Span.Point(arrival, "serve-replay")
		} else {
			desc.Obs.Span.Point(arrival, "serve-ondemand")
		}
		lat := e.dev.effectiveLatency()
		if f, ok := e.dev.inj.Straggle(); ok {
			lat = sim.Time(float64(lat) * f)
			desc.Obs.Span.Point(arrival, "fault-straggle")
		}
		// The delay module times responses off the descriptor's
		// submission timestamp, so the emulated latency is measured
		// from the host's enqueue — but a response can never leave
		// before its descriptor has been fetched.
		sendAt := desc.Submitted + e.dev.internalDelayFor(lat)
		if sendAt < arrival {
			sendAt = arrival
		}
		if !fromReplay {
			earliest := arrival + OnDemandDRAMLatency
			if earliest > sendAt {
				sendAt = earliest
			}
		}
		if e.dev.inj.DropCompletion() {
			// Both writes lost; the host's descriptor timeout resubmits.
			desc.Obs.Span.Point(arrival, "fault-drop")
			continue
		}
		desc.Obs.Span.Point(sendAt, "resp-sent")
		// Response-data write TLP, then host DRAM write.
		r := e.newResponse()
		r.id, r.obs, r.sendAt, r.data = desc.ID, desc.Obs, sendAt, data
		e.dev.link.SendUpAt(sendAt, platform.CacheLineBytes, platform.CacheLineBytes, r.sentFn)
		// Completion write queues behind the data write on the upstream
		// link, guaranteeing host-visible ordering.
		e.sendCompletion(sendAt, desc.ID, desc.Obs)
		if e.dev.inj.Duplicate() {
			// Spurious second completion; the host scheduler discards
			// entries for descriptors it no longer tracks.
			desc.Obs.Span.Point(sendAt, "fault-duplicate")
			e.sendCompletion(sendAt, desc.ID, desc.Obs)
		}
	}
}

// swqResponse is one descriptor's response-data write: the upstream
// TLP, then the host DRAM write into the descriptor's target. Its
// callbacks are bound once, when the record is first built; it goes
// back on the endpoint's free list when the data has landed.
type swqResponse struct {
	ep     *SWQEndpoint
	id     uint64
	obs    observe.Access
	sendAt sim.Time
	data   []byte

	sentFn   func()
	landedFn func()
}

func (e *SWQEndpoint) newResponse() *swqResponse {
	if n := len(e.respFree); n > 0 {
		r := e.respFree[n-1]
		e.respFree = e.respFree[:n-1]
		return r
	}
	r := &swqResponse{ep: e}
	r.sentFn = r.sent
	r.landedFn = r.landed
	return r
}

func (r *swqResponse) sent() {
	// The delay-module wait until the response left was device
	// service. Marked at arrival (never future-dated) so a straggling
	// descriptor's response cannot corrupt a ledger the host already
	// closed or resubmitted.
	r.obs.Ledger.To(attrib.PhaseDevice, r.sendAt)
	r.ep.dev.hostDRAM.WriteThen(r.landedFn)
}

func (r *swqResponse) landed() {
	e := r.ep
	e.data.Put(r.id, r.data)
	r.obs.Mark(e.dev.eng.Now(), "data-landed", attrib.PhaseTransit)
	*r = swqResponse{ep: e, sentFn: r.sentFn, landedFn: r.landedFn}
	e.respFree = append(e.respFree, r)
}

// swqCompletion is one completion entry on its way into the host
// completion queue: the upstream TLP, the host DRAM write, and the
// post (deferred while an injected CQ bound holds the queue full). Its
// callbacks are bound once, when the record is first built; it goes
// back on the endpoint's free list once the entry is posted.
type swqCompletion struct {
	ep  *SWQEndpoint
	id  uint64
	obs observe.Access

	sentFn   func()
	landedFn func()
	postFn   func()
}

// sendCompletion carries one completion entry upstream and lands it in
// the host completion queue, stamping the landing on the access span
// and marking completion wait on the attribution ledger (a duplicate
// completion's second mark clamps to zero on the closed ledger).
func (e *SWQEndpoint) sendCompletion(sendAt sim.Time, id uint64, obs observe.Access) {
	var c *swqCompletion
	if n := len(e.complFree); n > 0 {
		c = e.complFree[n-1]
		e.complFree = e.complFree[:n-1]
	} else {
		c = &swqCompletion{ep: e}
		c.sentFn = c.sent
		c.landedFn = c.landed
		c.postFn = c.post
	}
	c.id, c.obs = id, obs
	e.dev.link.SendUpAt(sendAt, e.dev.cfg.CompletionBytes, 0, c.sentFn)
}

func (c *swqCompletion) sent() { c.ep.dev.hostDRAM.WriteThen(c.landedFn) }

func (c *swqCompletion) landed() {
	c.obs.Mark(c.ep.dev.eng.Now(), "completion-posted", attrib.PhaseComplWait)
	c.post()
}

// post places a landed completion into the host queue. Under an
// injected CQCapacity bound a full queue defers the post — the device
// retries after the platform's backpressure delay until the host
// drains entries.
func (c *swqCompletion) post() {
	e := c.ep
	if e.dev.inj.CQFull(e.cq.Len()) {
		e.dev.eng.After(e.dev.cfg.CQBackpressureDelay, c.postFn)
		return
	}
	id := c.id
	*c = swqCompletion{ep: e, sentFn: c.sentFn, landedFn: c.landedFn, postFn: c.postFn}
	e.complFree = append(e.complFree, c)
	e.cq.Post(id, e.dev.eng.Now())
	if e.cqNotified {
		e.cqNotified = false
		e.cqNotify.Fire()
	}
}

// processWrite handles a write descriptor (§VII extension): the device
// DMA-reads the source line from host memory (read request upstream,
// data completion downstream), absorbs the store, and posts a
// completion the host scheduler discards.
func (e *SWQEndpoint) processWrite(desc hostmem.Descriptor) {
	e.dev.writesServed++
	e.dev.link.SendUp(0, 0, func() {
		e.dev.hostDRAM.ReadThen(func() {
			e.dev.link.SendDown(platform.CacheLineBytes, platform.CacheLineBytes, func() {
				// Store absorbed; completion flows back.
				e.sendCompletion(e.dev.eng.Now(), desc.ID, observe.Access{})
			})
		})
	})
}
