package elan4

import (
	"qsmpi/internal/model"
	"qsmpi/internal/simtime"
)

// Firmware is custom microcode running on the NIC's thread processor. The
// Elan4 is user-programmable, and MPICH-QsNetII's Tport library — the
// paper's baseline — implements its tag matching there rather than on the
// host. Firmware gets first refusal on every arriving packet and a small
// API to act in NIC context (send packets, delay for processing costs,
// touch host memory through a context's MMU, raise events) without
// involving the host CPU.
type Firmware interface {
	// HandlePacket examines an arriving payload; returning true consumes
	// it, false passes it to the NIC's standard QDMA/RDMA handling.
	HandlePacket(payload any) bool
}

// SetFirmware installs fw on the NIC's thread processor.
func (n *NIC) SetFirmware(fw Firmware) { n.firmware = fw }

// Cfg exposes the NIC's cost model to firmware.
func (n *NIC) Cfg() model.Config { return n.cfg }

// FirmwareSend transmits a packet from NIC context (no host cost). size
// is the on-wire payload size in bytes.
func (n *NIC) FirmwareSend(dstPort, size int, payload any) {
	n.send(dstPort, size, payload)
}

// FirmwareDelay schedules fn after d of NIC processing time.
func (n *NIC) FirmwareDelay(d simtime.Duration, name string, fn func()) {
	n.sc.After(d, name, fn)
}

// FirmwareRxPCI schedules fn once nbytes have moved to host memory through
// the inbound PCI path (FIFO with all other inbound traffic).
func (n *NIC) FirmwareRxPCI(nbytes int, extra simtime.Duration, name string, fn func()) {
	n.afterRxPCI(nbytes, extra, name, fn)
}

// FirmwareTxPCI schedules fn after reading nbytes from host memory (the
// outbound DMA cost firmware pays before putting data on the wire).
func (n *NIC) FirmwareTxPCI(nbytes int, extra simtime.Duration, name string, fn func()) {
	n.sc.After(simtime.BytesAt(nbytes, n.cfg.PCIBandwidth)+extra, name, fn)
}
