package wire

import (
	"encoding/binary"
)

// DeviceHello opens a registration handshake: a device announces itself
// to the gateway's registration plane, naming the slot it wants to
// occupy, the tenant it serves, and the address of its data-plane
// listener. The gateway dials that address back to establish the
// capture/feature link (keeping the gateway→device dial direction of
// the data plane), installs the slot into the live topology, bumps the
// topology config version, and answers with a DeviceWelcome — or a
// wire.Error when the slot is out of range or already occupied by a
// different node.
type DeviceHello struct {
	// NodeID names the registering device.
	NodeID string
	// Slot is the device slot (index into the presence mask) being claimed.
	Slot uint16
	// Tenant optionally names the tenant/application the device serves.
	Tenant string
	// Addr is the device's data-plane listen address the gateway dials back.
	Addr string
}

// MsgType implements Message.
func (*DeviceHello) MsgType() MsgType { return TypeDeviceHello }

func (m *DeviceHello) appendPayload(dst []byte) []byte {
	dst = appendString(dst, m.NodeID)
	dst = binary.LittleEndian.AppendUint16(dst, m.Slot)
	dst = appendString(dst, m.Tenant)
	return appendString(dst, m.Addr)
}

func (m *DeviceHello) decodePayload(src []byte) error {
	r := reader{buf: src}
	m.NodeID, m.Slot, m.Tenant, m.Addr = r.str(), r.u16(), r.str(), r.str()
	return r.end()
}

// DeviceWelcome acknowledges a DeviceHello: the slot is installed in
// the live topology and the gateway reports the hierarchy size and the
// topology config version the admission produced, so the device knows
// which version of the world it joined.
type DeviceWelcome struct {
	// Slot is the device slot that was admitted.
	Slot uint16
	// Devices is the total device-slot count of the hierarchy.
	Devices uint16
	// ConfigVersion is the topology config version after this admission.
	ConfigVersion uint64
}

// MsgType implements Message.
func (*DeviceWelcome) MsgType() MsgType { return TypeDeviceWelcome }

func (m *DeviceWelcome) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, m.Slot)
	dst = binary.LittleEndian.AppendUint16(dst, m.Devices)
	return binary.LittleEndian.AppendUint64(dst, m.ConfigVersion)
}

func (m *DeviceWelcome) decodePayload(src []byte) error {
	r := reader{buf: src}
	m.Slot, m.Devices, m.ConfigVersion = r.u16(), r.u16(), r.u64()
	return r.end()
}

// DeviceGoodbye deregisters a device slot: the gateway removes the slot
// from the live topology and bumps the config version. Sessions already
// in flight complete under the membership snapshot they observed; new
// sessions no longer fan out to the departed slot. The gateway answers
// with a DeviceWelcome carrying the post-departure config version.
type DeviceGoodbye struct {
	// NodeID names the departing device.
	NodeID string
	// Slot is the device slot being vacated.
	Slot uint16
	// Reason optionally describes why the device is leaving.
	Reason string
}

// MsgType implements Message.
func (*DeviceGoodbye) MsgType() MsgType { return TypeDeviceGoodbye }

func (m *DeviceGoodbye) appendPayload(dst []byte) []byte {
	dst = appendString(dst, m.NodeID)
	dst = binary.LittleEndian.AppendUint16(dst, m.Slot)
	return appendString(dst, m.Reason)
}

func (m *DeviceGoodbye) decodePayload(src []byte) error {
	r := reader{buf: src}
	m.NodeID, m.Slot, m.Reason = r.str(), r.u16(), r.str()
	return r.end()
}
